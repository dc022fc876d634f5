#include "routing/dtn_agent.hpp"

#include <stdexcept>

namespace glr::routing {

void DtnAgent::visit(ckpt::Encoder& /*ar*/) {
  throw std::runtime_error{
      "DtnAgent: this protocol does not implement checkpointing"};
}

void DtnAgent::visit(ckpt::Decoder& /*ar*/) {
  throw std::runtime_error{
      "DtnAgent: this protocol does not implement checkpoint restore"};
}

void DtnAgent::restoreEvent(const sim::EventKey& /*key*/,
                            const sim::EventDesc& /*desc*/) {
  throw std::runtime_error{
      "DtnAgent: this protocol does not implement event restore"};
}

}  // namespace glr::routing
