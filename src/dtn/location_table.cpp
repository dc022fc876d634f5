#include "dtn/location_table.hpp"

#include "checkpoint/message_codec.hpp"

namespace glr::dtn {

template <class Ar>
void LocationTable::visit(Ar& ar) {
  ckpt::visitBuiltOnUse(ar, table_, [&](Map& table) {
    ar.unorderedMap(table, [&](int& id, Entry& entry) {
      ar.i32(id);
      ckpt::visit(ar, entry.pos);
      ar.f64(entry.at);
    });
  });
}

template void LocationTable::visit(ckpt::Encoder&);
template void LocationTable::visit(ckpt::Decoder&);

}  // namespace glr::dtn
