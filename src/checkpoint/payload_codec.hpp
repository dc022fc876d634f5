#pragma once
/// \file payload_codec.hpp
/// Content-based serialization of packets and protocol payloads.
///
/// A net::Payload is a refcounted arena handle, so the checkpoint stores the
/// *value* it carries plus a type tag, and restore re-creates a fresh handle
/// holding an equal value (arena/refcount state is invisible to the
/// simulation — packets are immutable once shared, so handle identity never
/// matters, only content). The closed set of payload types is the protocol
/// vocabulary: hello beacons, DTN messages, custody acks, epidemic
/// summary/request vectors and spray handovers. An unknown payload type is a
/// loud error at *save* time, so adding a protocol without extending this
/// codec cannot produce a silently-wrong checkpoint.
///
/// Only .cpp files include this header (it pulls in the routing headers).

#include "checkpoint/codec.hpp"
#include "checkpoint/message_codec.hpp"
#include "core/glr_agent.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "routing/epidemic.hpp"
#include "routing/spray_wait.hpp"

namespace glr::ckpt {

template <class Ar>
void visit(Ar& ar, net::Payload& p);
template <class Ar>
void visit(Ar& ar, net::Packet& p);

}  // namespace glr::ckpt
