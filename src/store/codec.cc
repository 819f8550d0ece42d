#include "store/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/string_util.h"

namespace cspm::store {
namespace {

Status Corrupt(const char* what) {
  return Status::IOError(std::string("codec: ") + what);
}

}  // namespace

void Encoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void Encoder::PutDouble(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void Encoder::PutString(std::string_view s) {
  PutVarint(s.size());
  out_.append(s);
}

void Encoder::PutDeltaIds(const std::vector<uint32_t>& sorted_ids) {
  PutVarint(sorted_ids.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < sorted_ids.size(); ++i) {
    PutVarint(i == 0 ? sorted_ids[0] : sorted_ids[i] - prev);
    prev = sorted_ids[i];
  }
}

void Encoder::PutDeltaIds(std::span<const graph::AttrId> sorted_ids) {
  PutVarint(sorted_ids.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < sorted_ids.size(); ++i) {
    const uint32_t v = sorted_ids[i].value();
    PutVarint(i == 0 ? v : v - prev);
    prev = v;
  }
}

StatusOr<uint8_t> Decoder::ReadU8() {
  if (pos_ >= data_.size()) return Corrupt("truncated (u8)");
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint64_t> Decoder::ReadVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return Corrupt("truncated (varint)");
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return Corrupt("varint longer than 10 bytes");
}

StatusOr<double> Decoder::ReadDouble() {
  if (data_.size() - pos_ < 8) return Corrupt("truncated (double)");
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
            << (8 * i);
  }
  pos_ += 8;
  return std::bit_cast<double>(bits);
}

StatusOr<std::string_view> Decoder::ReadString() {
  CSPM_ASSIGN_OR_RETURN(uint64_t len, ReadVarint());
  if (len > data_.size() - pos_) return Corrupt("truncated (string)");
  std::string_view s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

template <typename Id>
Status Decoder::ReadDeltaIdsAs(std::vector<Id>* out) {
  CSPM_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
  // A delta id costs at least one byte; bound count by the bytes left so a
  // corrupt count cannot trigger a huge allocation.
  if (count > remaining()) return Corrupt("id list longer than record");
  out->clear();
  out->reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    CSPM_ASSIGN_OR_RETURN(uint64_t delta, ReadVarint());
    const uint64_t v = (i == 0) ? delta : prev + delta;
    if (v > UINT32_MAX) return Corrupt("id overflows 32 bits");
    out->push_back(Id(static_cast<uint32_t>(v)));
    prev = v;
  }
  return Status::OK();
}

Status Decoder::ReadDeltaIds(std::vector<uint32_t>* out) {
  return ReadDeltaIdsAs(out);
}

Status Decoder::ReadDeltaIds(std::vector<graph::AttrId>* out) {
  return ReadDeltaIdsAs(out);
}

// --- dictionary -----------------------------------------------------------

void EncodeDictionary(const graph::AttributeDictionary& dict, Encoder* enc) {
  enc->PutVarint(dict.size());
  for (graph::AttrId id(0); id.index() < dict.size(); ++id) {
    enc->PutString(dict.Name(id));
  }
}

StatusOr<graph::AttributeDictionary> DecodeDictionary(Decoder* dec) {
  CSPM_ASSIGN_OR_RETURN(uint64_t count, dec->ReadVarint());
  if (count > dec->remaining()) return Corrupt("dictionary longer than record");
  graph::AttributeDictionary dict;
  for (uint64_t i = 0; i < count; ++i) {
    CSPM_ASSIGN_OR_RETURN(std::string_view name, dec->ReadString());
    if (dict.Intern(name).value() != i) {
      return Corrupt("duplicate name in stored dictionary");
    }
  }
  return dict;
}

// --- model ----------------------------------------------------------------

namespace {

void EncodeStats(const core::MiningStats& stats, Encoder* enc) {
  enc->PutDouble(stats.initial_dl_bits);
  enc->PutDouble(stats.final_dl_bits);
  enc->PutVarint(stats.iterations);
  enc->PutVarint(stats.total_gain_computations);
  enc->PutVarint(stats.initial_leafsets);
  enc->PutVarint(stats.final_leafsets);
  enc->PutVarint(stats.initial_lines);
  enc->PutVarint(stats.final_lines);
  enc->PutDouble(stats.runtime_seconds);
  enc->PutU8(stats.hit_time_budget ? 1 : 0);
  enc->PutVarint(stats.per_iteration.size());
  for (const core::IterationStats& it : stats.per_iteration) {
    enc->PutVarint(it.iteration);
    enc->PutVarint(it.gain_computations);
    enc->PutVarint(it.possible_pairs);
    enc->PutDouble(it.accepted_gain_bits);
    enc->PutVarint(it.active_leafsets);
    enc->PutVarint(it.num_lines);
  }
}

Status DecodeStats(Decoder* dec, core::MiningStats* stats) {
  CSPM_ASSIGN_OR_RETURN(stats->initial_dl_bits, dec->ReadDouble());
  CSPM_ASSIGN_OR_RETURN(stats->final_dl_bits, dec->ReadDouble());
  CSPM_ASSIGN_OR_RETURN(stats->iterations, dec->ReadVarint());
  CSPM_ASSIGN_OR_RETURN(stats->total_gain_computations, dec->ReadVarint());
  CSPM_ASSIGN_OR_RETURN(stats->initial_leafsets, dec->ReadVarint());
  CSPM_ASSIGN_OR_RETURN(stats->final_leafsets, dec->ReadVarint());
  CSPM_ASSIGN_OR_RETURN(stats->initial_lines, dec->ReadVarint());
  CSPM_ASSIGN_OR_RETURN(stats->final_lines, dec->ReadVarint());
  CSPM_ASSIGN_OR_RETURN(stats->runtime_seconds, dec->ReadDouble());
  CSPM_ASSIGN_OR_RETURN(uint8_t budget, dec->ReadU8());
  stats->hit_time_budget = budget != 0;
  CSPM_ASSIGN_OR_RETURN(uint64_t count, dec->ReadVarint());
  if (count > dec->remaining()) {
    return Corrupt("iteration stats longer than record");
  }
  stats->per_iteration.clear();
  stats->per_iteration.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    core::IterationStats it;
    CSPM_ASSIGN_OR_RETURN(it.iteration, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(it.gain_computations, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(it.possible_pairs, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(it.accepted_gain_bits, dec->ReadDouble());
    CSPM_ASSIGN_OR_RETURN(it.active_leafsets, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(it.num_lines, dec->ReadVarint());
    stats->per_iteration.push_back(it);
  }
  return Status::OK();
}

}  // namespace

void EncodeModel(const core::CspmModel& model, Encoder* enc) {
  enc->PutVarint(model.astars.size());
  for (const core::AStarRef& s : model.astars) {
    enc->PutDeltaIds(s.core_values);
    enc->PutDeltaIds(s.leaf_values);
    enc->PutVarint(s.frequency);
    enc->PutVarint(s.core_total);
    enc->PutVarint(s.coreset_frequency);
    enc->PutDouble(s.code_length_bits);
  }
  EncodeStats(model.stats, enc);
}

StatusOr<core::CspmModel> DecodeModel(Decoder* dec) {
  core::CspmModel model;
  CSPM_ASSIGN_OR_RETURN(uint64_t count, dec->ReadVarint());
  if (count > dec->remaining()) return Corrupt("a-star list longer than record");
  // Each a-star has at least one core and one leaf value.
  model.astars.reserve(count, 2 * count);
  std::vector<graph::AttrId> core_values;
  std::vector<graph::AttrId> leaf_values;
  for (uint64_t i = 0; i < count; ++i) {
    core::AStarRef s;
    CSPM_RETURN_IF_ERROR(dec->ReadDeltaIds(&core_values));
    CSPM_RETURN_IF_ERROR(dec->ReadDeltaIds(&leaf_values));
    CSPM_ASSIGN_OR_RETURN(s.frequency, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(s.core_total, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(s.coreset_frequency, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(s.code_length_bits, dec->ReadDouble());
    if (core_values.empty() || leaf_values.empty()) {
      return Corrupt("a-star with empty core or leaf set");
    }
    s.core_values = core_values;
    s.leaf_values = leaf_values;
    model.astars.push_back(s);
  }
  CSPM_RETURN_IF_ERROR(DecodeStats(dec, &model.stats));
  return model;
}

// --- graph snapshot -------------------------------------------------------

void EncodeGraph(const graph::AttributedGraph& g, Encoder* enc) {
  const graph::VertexId n = g.num_vertices();
  enc->PutVarint(n.value());
  std::vector<uint32_t> scratch;
  for (graph::VertexId v(0); v < n; ++v) {
    scratch.clear();
    for (graph::AttrId a : g.Attributes(v)) scratch.push_back(a.value());
    enc->PutDeltaIds(scratch);
  }
  // Adjacency as per-vertex forward-neighbour lists (u > v), so each
  // undirected edge is encoded once, delta-compressed within its list.
  for (graph::VertexId v(0); v < n; ++v) {
    scratch.clear();
    for (graph::VertexId u : g.Neighbors(v)) {
      if (u > v) scratch.push_back(u.value());
    }
    enc->PutDeltaIds(scratch);
  }
}

StatusOr<graph::AttributedGraph> DecodeGraph(
    Decoder* dec, const graph::AttributeDictionary& dict) {
  CSPM_ASSIGN_OR_RETURN(uint64_t n, dec->ReadVarint());
  if (n > dec->remaining()) return Corrupt("graph larger than record");
  graph::GraphBuilder builder;
  // Re-intern the record's dictionary so attribute ids line up.
  for (graph::AttrId id(0); id.index() < dict.size(); ++id) {
    builder.InternAttribute(dict.Name(id));
  }
  std::vector<uint32_t> ids;
  for (uint64_t v = 0; v < n; ++v) {
    CSPM_RETURN_IF_ERROR(dec->ReadDeltaIds(&ids));
    for (uint32_t a : ids) {
      if (a >= dict.size()) return Corrupt("vertex attribute id out of range");
    }
    std::vector<graph::AttrId> attr_ids;
    attr_ids.reserve(ids.size());
    for (uint32_t a : ids) attr_ids.push_back(graph::AttrId(a));
    builder.AddVertexWithIds(std::move(attr_ids));
  }
  for (uint64_t v = 0; v < n; ++v) {
    CSPM_RETURN_IF_ERROR(dec->ReadDeltaIds(&ids));
    for (uint32_t u : ids) {
      if (u >= n) return Corrupt("edge endpoint out of range");
      CSPM_RETURN_IF_ERROR(
          builder.AddEdge(graph::VertexId(static_cast<uint32_t>(v)),
                          graph::VertexId(u)));
    }
  }
  return std::move(builder).Build(/*require_connected=*/false);
}

// --- graph delta ----------------------------------------------------------

namespace {

void EncodeAttrOps(const std::vector<graph::GraphDelta::AttrOp>& ops,
                   Encoder* enc) {
  enc->PutVarint(ops.size());
  for (const auto& op : ops) {
    enc->PutVarint(op.vertex.value());
    enc->PutString(op.attribute);
  }
}

Status DecodeAttrOps(Decoder* dec,
                     std::vector<graph::GraphDelta::AttrOp>* ops) {
  CSPM_ASSIGN_OR_RETURN(uint64_t count, dec->ReadVarint());
  // Bound by the bytes left so a corrupt count cannot trigger a huge
  // allocation (each op is at least two bytes).
  ops->reserve(std::min<uint64_t>(count, dec->remaining() / 2));
  for (uint64_t i = 0; i < count; ++i) {
    graph::GraphDelta::AttrOp op;
    CSPM_ASSIGN_OR_RETURN(uint64_t v, dec->ReadVarint());
    op.vertex = graph::VertexId(static_cast<uint32_t>(v));
    CSPM_ASSIGN_OR_RETURN(std::string_view name, dec->ReadString());
    op.attribute = std::string(name);
    ops->push_back(std::move(op));
  }
  return Status::OK();
}

void EncodeEdgeOps(const std::vector<graph::GraphDelta::EdgeOp>& ops,
                   Encoder* enc) {
  enc->PutVarint(ops.size());
  for (const auto& op : ops) {
    enc->PutVarint(op.u.value());
    enc->PutVarint(op.v.value());
  }
}

Status DecodeEdgeOps(Decoder* dec,
                     std::vector<graph::GraphDelta::EdgeOp>* ops) {
  CSPM_ASSIGN_OR_RETURN(uint64_t count, dec->ReadVarint());
  ops->reserve(std::min<uint64_t>(count, dec->remaining() / 2));
  for (uint64_t i = 0; i < count; ++i) {
    graph::GraphDelta::EdgeOp op;
    CSPM_ASSIGN_OR_RETURN(uint64_t u, dec->ReadVarint());
    CSPM_ASSIGN_OR_RETURN(uint64_t v, dec->ReadVarint());
    op.u = graph::VertexId(static_cast<uint32_t>(u));
    op.v = graph::VertexId(static_cast<uint32_t>(v));
    ops->push_back(op);
  }
  return Status::OK();
}

}  // namespace

void EncodeGraphDelta(const graph::GraphDelta& delta, Encoder* enc) {
  enc->PutVarint(delta.added_vertices.size());
  for (const auto& spec : delta.added_vertices) {
    enc->PutVarint(spec.attributes.size());
    for (const std::string& name : spec.attributes) enc->PutString(name);
  }
  EncodeAttrOps(delta.set_attributes, enc);
  EncodeAttrOps(delta.cleared_attributes, enc);
  EncodeEdgeOps(delta.removed_edges, enc);
  EncodeEdgeOps(delta.added_edges, enc);
}

StatusOr<graph::GraphDelta> DecodeGraphDelta(Decoder* dec) {
  graph::GraphDelta delta;
  CSPM_ASSIGN_OR_RETURN(uint64_t vertices, dec->ReadVarint());
  delta.added_vertices.reserve(
      std::min<uint64_t>(vertices, dec->remaining()));
  for (uint64_t i = 0; i < vertices; ++i) {
    graph::GraphDelta::VertexSpec spec;
    CSPM_ASSIGN_OR_RETURN(uint64_t attrs, dec->ReadVarint());
    spec.attributes.reserve(std::min<uint64_t>(attrs, dec->remaining()));
    for (uint64_t j = 0; j < attrs; ++j) {
      CSPM_ASSIGN_OR_RETURN(std::string_view name, dec->ReadString());
      spec.attributes.emplace_back(name);
    }
    delta.added_vertices.push_back(std::move(spec));
  }
  CSPM_RETURN_IF_ERROR(DecodeAttrOps(dec, &delta.set_attributes));
  CSPM_RETURN_IF_ERROR(DecodeAttrOps(dec, &delta.cleared_attributes));
  CSPM_RETURN_IF_ERROR(DecodeEdgeOps(dec, &delta.removed_edges));
  CSPM_RETURN_IF_ERROR(DecodeEdgeOps(dec, &delta.added_edges));
  return delta;
}

// --- remap ----------------------------------------------------------------

namespace {

Status RemapIds(std::span<graph::AttrId> ids,
                const graph::AttributeDictionary& from,
                const graph::AttributeDictionary& to) {
  for (graph::AttrId& id : ids) {
    if (id.index() >= from.size()) {
      return Corrupt("stored attribute id outside stored dictionary");
    }
    const std::string& name = from.Name(id);
    const graph::AttrId mapped = to.Find(name);
    if (mapped == graph::AttributeDictionary::kNotFound) {
      return Status::NotFound("unknown attribute value: " + name);
    }
    id = mapped;
  }
  std::sort(ids.begin(), ids.end());
  return Status::OK();
}

}  // namespace

StatusOr<core::CspmModel> RemapModelAttributes(
    const core::CspmModel& model, const graph::AttributeDictionary& from,
    const graph::AttributeDictionary& to) {
  core::CspmModel out = model;
  for (size_t i = 0; i < out.astars.size(); ++i) {
    CSPM_RETURN_IF_ERROR(RemapIds(out.astars.MutableCoreValues(i), from, to));
    CSPM_RETURN_IF_ERROR(RemapIds(out.astars.MutableLeafValues(i), from, to));
  }
  return out;
}

}  // namespace cspm::store
