// Binary codec for store records: LEB128 varints, delta-encoded sorted id
// lists, and raw little-endian doubles (bit-exact round trips, unlike the
// text format's printed decimals). A store record is fully self-contained:
// it embeds the attribute dictionary (and optionally a graph snapshot), so
// a model can be decoded in a process that never saw the source graph.
#ifndef CSPM_STORE_CODEC_H_
#define CSPM_STORE_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cspm/model.h"
#include "graph/attribute_dictionary.h"
#include "graph/attributed_graph.h"
#include "graph/graph_delta.h"
#include "util/status.h"

namespace cspm::store {

/// Append-only encoder over a byte buffer.
class Encoder {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutVarint(uint64_t v);
  /// Raw IEEE-754 bits, little-endian — decodes bit-identically.
  void PutDouble(double v);
  /// Varint length prefix + raw bytes.
  void PutString(std::string_view s);
  /// Sorted id list: count, first value, then deltas (all varints).
  void PutDeltaIds(const std::vector<uint32_t>& sorted_ids);
  /// Strong-id overload; encodes the underlying values.
  void PutDeltaIds(std::span<const graph::AttrId> sorted_ids);

  const std::string& data() const { return out_; }
  std::string Release() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader; every method fails cleanly on truncated or
/// malformed input instead of reading past the buffer.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  StatusOr<uint8_t> ReadU8();
  StatusOr<uint64_t> ReadVarint();
  StatusOr<double> ReadDouble();
  StatusOr<std::string_view> ReadString();
  Status ReadDeltaIds(std::vector<uint32_t>* out);
  /// Strong-id overload; decodes into explicitly constructed ids.
  Status ReadDeltaIds(std::vector<graph::AttrId>* out);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename Id>
  Status ReadDeltaIdsAs(std::vector<Id>* out);

  std::string_view data_;
  size_t pos_ = 0;
};

// --- domain encodings -----------------------------------------------------

void EncodeDictionary(const graph::AttributeDictionary& dict, Encoder* enc);
StatusOr<graph::AttributeDictionary> DecodeDictionary(Decoder* dec);

void EncodeModel(const core::CspmModel& model, Encoder* enc);
StatusOr<core::CspmModel> DecodeModel(Decoder* dec);

/// Graph snapshot: vertex attribute lists + adjacency, delta-varint
/// encoded. Attribute ids refer to the record's embedded dictionary.
void EncodeGraph(const graph::AttributedGraph& g, Encoder* enc);
/// Rebuilds the graph; `dict` must be the dictionary decoded from the same
/// record (its names are re-interned in id order).
StatusOr<graph::AttributedGraph> DecodeGraph(
    Decoder* dec, const graph::AttributeDictionary& dict);

/// Graph delta, the WAL record payload: attribute names travel as strings
/// (a delta may introduce values unknown to the stored dictionary).
void EncodeGraphDelta(const graph::GraphDelta& delta, Encoder* enc);
StatusOr<graph::GraphDelta> DecodeGraphDelta(Decoder* dec);

/// Rewrites a model's attribute ids from the dictionary it was stored with
/// to a target dictionary (by name), e.g. when loading a store record into
/// a session bound to a live graph. Fails if a name is missing from `to`.
StatusOr<core::CspmModel> RemapModelAttributes(
    const core::CspmModel& model, const graph::AttributeDictionary& from,
    const graph::AttributeDictionary& to);

}  // namespace cspm::store

#endif  // CSPM_STORE_CODEC_H_
