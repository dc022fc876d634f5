#pragma once
/// \file message_codec.hpp
/// Checkpoint visits of the DTN message vocabulary (points, message ids,
/// copy keys, full message headers). Split out of payload_codec.hpp so
/// storage-layer code (dtn::MessageBuffer) can serialize messages without
/// pulling in the routing/protocol headers.
///
/// Definitions live in payload_codec.cpp, instantiated for Encoder and
/// Decoder; the field order is the on-disk format and is append-only.

#include "checkpoint/codec.hpp"
#include "dtn/message.hpp"
#include "geometry/point.hpp"

namespace glr::ckpt {

template <class Ar>
void visit(Ar& ar, geom::Point2& p);
template <class Ar>
void visit(Ar& ar, dtn::MessageId& id);
template <class Ar>
void visit(Ar& ar, dtn::CopyKey& key);
template <class Ar>
void visit(Ar& ar, dtn::Message& m);

}  // namespace glr::ckpt
