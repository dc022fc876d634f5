#include "checkpoint/payload_codec.hpp"

namespace glr::ckpt {

namespace {

/// On-disk payload type tags — append only.
enum PayloadTag : std::uint8_t {
  kEmpty = 0,
  kHello = 1,
  kMessage = 2,
  kCustodyAck = 3,
  kSummaryVector = 4,
  kRequestVector = 5,
  kSprayData = 6,
};

std::uint8_t tagOf(const net::Payload& p) {
  if (p.empty()) return kEmpty;
  if (p.get<net::HelloPayload>() != nullptr) return kHello;
  if (p.get<dtn::Message>() != nullptr) return kMessage;
  if (p.get<core::CustodyAck>() != nullptr) return kCustodyAck;
  if (p.get<routing::SummaryVector>() != nullptr) return kSummaryVector;
  if (p.get<routing::RequestVector>() != nullptr) return kRequestVector;
  if (p.get<routing::SprayData>() != nullptr) return kSprayData;
  throw std::runtime_error{
      "checkpoint: packet carries an unknown payload type (extend "
      "payload_codec.cpp before checkpointing this protocol)"};
}

/// Visits the T a payload holds. Encoding reads a copy (shared payloads are
/// immutable); decoding fills a fresh T and hands it to a new handle.
template <class T, class Ar, class Fields>
void visitValue(Ar& /*ar*/, net::Payload& p, Fields&& fields) {
  T value{};
  if constexpr (!Ar::kLoading) value = *p.get<T>();
  fields(value);
  if constexpr (Ar::kLoading) p = net::Payload::of(value);
}

template <class Ar>
void visitIds(Ar& ar, std::vector<dtn::MessageId>& ids) {
  ar.sequence(ids, 8, [&](dtn::MessageId& id) { visit(ar, id); });
}

}  // namespace

template <class Ar>
void visit(Ar& ar, geom::Point2& p) {
  ar.f64(p.x);
  ar.f64(p.y);
}

template <class Ar>
void visit(Ar& ar, dtn::MessageId& id) {
  ar.i32(id.src);
  ar.i32(id.seq);
}

template <class Ar>
void visit(Ar& ar, dtn::CopyKey& key) {
  visit(ar, key.id);
  ar.enumeration(key.flag, dtn::TreeFlag::kMid,
                 "copy key holds invalid tree flag");
}

template <class Ar>
void visit(Ar& ar, dtn::Message& m) {
  visit(ar, m.id);
  ar.i32(m.srcNode);
  ar.i32(m.dstNode);
  ar.f64(m.created);
  ar.u64(m.payloadBytes);  // simulated bytes, not a bounded count
  ar.f64(m.expiresAt);
  ar.enumeration(m.flag, dtn::TreeFlag::kMid,
                 "message holds invalid tree flag");
  visit(ar, m.destLoc);
  ar.f64(m.destLocTime);
  ar.boolean(m.destLocKnown);
  ar.boolean(m.faceMode);
  visit(ar, m.faceEntry);
  ar.i32(m.facePrevHop);
  ar.i32(m.faceEntryNode);
  ar.i32(m.faceHops);
  ar.boolean(m.destLocPerturbed);
  ar.i32(m.hops);
  ar.i32(m.stuckCount);
  ar.i32(m.waitChecks);
  ar.i32(m.retryBackoff);
  ar.f64(m.lastPerturbAt);
  ar.i32(m.deliveryFailures);
  ar.f64(m.lastRecoveryAt);
  ar.f64(m.faceCooldownUntil);
  ar.i32(m.faceExhaustions);
}

template <class Ar>
void visit(Ar& ar, net::Payload& p) {
  std::uint8_t tag = kEmpty;
  if constexpr (!Ar::kLoading) tag = tagOf(p);
  ar.u8(tag);
  switch (tag) {
    case kEmpty:
      if constexpr (Ar::kLoading) p.reset();
      break;
    case kHello:
      visitValue<net::HelloPayload>(ar, p, [&](net::HelloPayload& hello) {
        ar.i32(hello.id);
        visit(ar, hello.pos);
        ar.f64(hello.sentAt);
        hello.neighbors.visit(ar);
      });
      break;
    case kMessage:
      visitValue<dtn::Message>(ar, p, [&](dtn::Message& m) { visit(ar, m); });
      break;
    case kCustodyAck:
      visitValue<core::CustodyAck>(ar, p, [&](core::CustodyAck& ack) {
        visit(ar, ack.key);
        ar.boolean(ack.accepted);
      });
      break;
    case kSummaryVector:
      visitValue<routing::SummaryVector>(
          ar, p, [&](routing::SummaryVector& sv) { visitIds(ar, sv.ids); });
      break;
    case kRequestVector:
      visitValue<routing::RequestVector>(
          ar, p, [&](routing::RequestVector& req) { visitIds(ar, req.ids); });
      break;
    case kSprayData:
      visitValue<routing::SprayData>(ar, p, [&](routing::SprayData& spray) {
        visit(ar, spray.message);
        ar.i32(spray.budget);
      });
      break;
    default:
      if constexpr (Ar::kLoading) {
        ar.fail("unknown payload tag " + std::to_string(tag));
      }
  }
}

template <class Ar>
void visit(Ar& ar, net::Packet& p) {
  ar.u64(p.bytes);  // simulated bytes, not a bounded count
  ar.str(p.kind);
  visit(ar, p.payload);
}

#define GLR_CKPT_INSTANTIATE(T)       \
  template void visit(Encoder&, T&); \
  template void visit(Decoder&, T&);
GLR_CKPT_INSTANTIATE(geom::Point2)
GLR_CKPT_INSTANTIATE(dtn::MessageId)
GLR_CKPT_INSTANTIATE(dtn::CopyKey)
GLR_CKPT_INSTANTIATE(dtn::Message)
GLR_CKPT_INSTANTIATE(net::Payload)
GLR_CKPT_INSTANTIATE(net::Packet)
#undef GLR_CKPT_INSTANTIATE

}  // namespace glr::ckpt
