#include "dtn/metrics.hpp"

#include "checkpoint/codec.hpp"

namespace glr::dtn {

template <class Ar>
void MetricsCollector::visit(Ar& ar) {
  for (std::vector<Bitmap>* bits : {&createdBits_, &deliveredBits_}) {
    ar.sequence(*bits, 8, [&](Bitmap& b) {
      ar.sequence(b, 8, [&](std::uint64_t& word) { ar.u64(word); });
    });
  }
  ar.unorderedMap(counters_, [&](std::string& key, std::uint64_t& value) {
    ar.str(key);
    ar.u64(value);
  });
  latencySketch_.visit(ar);
  latencyMoments_.visit(ar);
  ar.u64(createdCount_);
  ar.u64(deliveredCount_);
  ar.f64(latencySum_);
  ar.f64(hopsSum_);
  ar.u64(duplicateDeliveries_);
}

template void MetricsCollector::visit(ckpt::Encoder&);
template void MetricsCollector::visit(ckpt::Decoder&);

}  // namespace glr::dtn
