// Wire protocol for cspm_serve: length-prefixed, CRC-protected binary
// frames over a byte stream (TCP). The format is normative in
// docs/PROTOCOL.md; this header is its executable counterpart.
//
// Frame layout (all integers little-endian), 20-byte header:
//
//   offset  size  field
//   0       4     magic "CSN1" (version is part of the magic, like the
//                 store's "CSPMSTR" header — a format bump mints "CSN2")
//   4       1     verb
//   5       1     status (0 in requests; response error code otherwise)
//   6       2     reserved, must be zero
//   8       4     request id (client-chosen, echoed verbatim in the
//                 response — responses may arrive out of request order)
//   12      4     payload length in bytes
//   16      4     CRC-32 of the payload bytes (util/crc32, IEEE 802.3)
//   20      ...   payload (verb-specific, store/codec varint encoding)
//
// The parser is hardened against hostile or torn streams: bad magic,
// nonzero reserved bytes, a length above the configured cap, and a CRC
// mismatch all surface as a clean Status — framing is unrecoverable after
// any of them, so the connection must be dropped. A partial frame is
// simply buffered until more bytes arrive (torn reads are normal).
#ifndef CSPM_NET_FRAME_H_
#define CSPM_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cspm/scoring.h"
#include "graph/graph_delta.h"
#include "util/status.h"

namespace cspm::net {

inline constexpr char kMagic[4] = {'C', 'S', 'N', '1'};
inline constexpr size_t kHeaderBytes = 20;
/// Default payload cap: a score batch over every vertex of a million-node
/// graph fits comfortably; anything larger is a corrupt length field.
inline constexpr size_t kDefaultMaxPayloadBytes = size_t{16} << 20;

/// Request verbs. On-wire values — do not renumber.
enum class Verb : uint8_t {
  kScore = 1,    ///< batch vertex scoring against a named model
  kUpdate = 2,   ///< graph delta ingestion (WAL + hot-swap path)
  kMetrics = 3,  ///< MetricsRegistry::SnapshotJson(), verbatim
  kList = 4,     ///< registered model names
  kPing = 5,     ///< liveness / warm-up no-op
};

/// Response status codes. 0 is success; nonzero mirrors util::StatusCode
/// plus the two conditions only the wire layer can produce. On-wire
/// values — do not renumber.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kFailedPrecondition = 3,
  kOutOfRange = 4,
  kInternal = 5,
  kIOError = 6,
  /// Admission control rejected the request: the model's score queue (or
  /// the update queue) is full. Back off and retry; nothing was executed.
  kOverloaded = 7,
};

/// Maps an engine Status onto the wire code (OK stays OK).
WireStatus WireStatusFromStatus(const Status& status);
/// Maps a non-OK wire code back onto a Status with the given message.
Status StatusFromWireStatus(WireStatus code, const std::string& message);
const char* WireStatusName(WireStatus code);

/// One parsed frame. For responses with status != kOk the payload is a
/// human-readable error message (codec string), not the verb's encoding.
struct Frame {
  Verb verb = Verb::kPing;
  WireStatus status = WireStatus::kOk;
  uint32_t request_id = 0;
  std::string payload;
};

/// Serializes header + payload (computes length and CRC).
std::string EncodeFrame(const Frame& frame);
void AppendFrame(const Frame& frame, std::string* out);

/// Incremental frame reassembler for one connection. Feed() buffers
/// partial input across calls, so frames torn anywhere — mid-magic,
/// mid-length, mid-payload — reassemble transparently; each connection
/// owns its parser, so interleaved reads across connections never mix.
class FrameParser {
 public:
  explicit FrameParser(size_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// Consumes `bytes`, appending every completed frame to *out. After the
  /// first error the parser is poisoned: the stream offset is unknowable,
  /// so every later Feed returns the same error and the connection must
  /// be closed.
  Status Feed(std::string_view bytes, std::vector<Frame>* out);

  /// Bytes buffered waiting for the rest of a frame.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  Status poisoned_ = Status::OK();
};

// --- verb payload encodings ----------------------------------------------
//
// All payloads use store/codec primitives (LEB128 varints, length-prefixed
// strings, raw little-endian doubles — doubles round-trip bit-exactly,
// which is what makes the cross-process bit-identity contract testable).

struct ScoreRequest {
  std::string model;
  /// Top-k entries per vertex in the reply; 0 = every attribute value.
  uint32_t k = 0;
  std::vector<graph::VertexId> vertices;
};

struct ScoreResponse {
  struct Entry {
    graph::AttrId attr{0};
    double score = 0.0;  ///< normalized score, raw IEEE-754 bits on wire
  };
  /// results[i] holds the ranked entries of request vertex i.
  std::vector<std::vector<Entry>> results;
};

struct UpdateRequest {
  std::string model;
  /// 0 = exact (bit-identical re-mine), 1 = fast (DL-epsilon contract);
  /// mirrors engine::UpdateMode and the WAL's on-disk mode byte.
  uint8_t mode = 0;
  graph::GraphDelta delta;
};

struct UpdateResponse {
  bool fast_path = false;
  /// Kept for the wire layout; always equals fast_path (PROTOCOL.md §5.4).
  bool warm_path = false;
  uint64_t dirty_vertices = 0;
  double dl_before_bits = 0.0;
  double dl_after_bits = 0.0;
};

struct ListResponse {
  std::vector<std::string> models;  ///< sorted
};

std::string EncodeScoreRequest(const ScoreRequest& req);
StatusOr<ScoreRequest> DecodeScoreRequest(std::string_view payload);
std::string EncodeScoreResponse(const ScoreResponse& resp);
StatusOr<ScoreResponse> DecodeScoreResponse(std::string_view payload);

std::string EncodeUpdateRequest(const UpdateRequest& req);
StatusOr<UpdateRequest> DecodeUpdateRequest(std::string_view payload);
std::string EncodeUpdateResponse(const UpdateResponse& resp);
StatusOr<UpdateResponse> DecodeUpdateResponse(std::string_view payload);

std::string EncodeListResponse(const ListResponse& resp);
StatusOr<ListResponse> DecodeListResponse(std::string_view payload);

/// Builds an error response frame for `request`: echoes verb + id, carries
/// the message as a codec string payload.
Frame MakeErrorFrame(Verb verb, uint32_t request_id, WireStatus code,
                     const std::string& message);
/// Extracts the error message of a non-OK response frame ("" if absent).
std::string ErrorMessageOf(const Frame& frame);

/// The reply ranking shared by the server and the bit-identity checkers:
/// entries sorted by normalized score descending, attribute id ascending on
/// ties (the cspm_shell ordering), truncated to k (0 = keep all). Both
/// sides of the cross-process contract call this one function, so a reply
/// is bit-identical to an in-process ScoreBatch by construction — any
/// divergence is a transport bug, not a ranking one.
std::vector<ScoreResponse::Entry> TopKScores(
    const core::AttributeScores& scores, uint32_t k);

}  // namespace cspm::net

#endif  // CSPM_NET_FRAME_H_
