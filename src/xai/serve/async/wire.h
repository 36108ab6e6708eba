#ifndef XAI_SERVE_ASYNC_WIRE_H_
#define XAI_SERVE_ASYNC_WIRE_H_

#include <cstdint>
#include <string>

#include "xai/core/status.h"
#include "xai/serve/request.h"

/// \file
/// Compact binary wire format for explanation requests and responses.
///
/// Layout principles:
///  - Explicit little-endian byte packing (endian-independent, no struct
///    casting, no padding on the wire).
///  - Every frame opens with magic "XAIW", a version byte, and a frame-type
///    byte; every variable-length field is length-prefixed. Decoding is
///    bounds-checked at each read: a truncated or corrupted frame yields
///    InvalidArgument, never an out-of-bounds read.
///  - Request frames carry the instance's ContentHash64 fingerprint *ahead*
///    of the instance payload. The front end probes the explanation cache
///    from the fixed-size header alone — on a hit the (potentially large)
///    feature vector is never deserialized; on a miss the materialized
///    instance is verified against the carried hash before it can be
///    computed on or cached, so a client with a stale or corrupt hash
///    cannot poison a cache entry.
///  - Response frames carry PayloadHash(response) computed at encode time.
///    A receiver recomputes the hash over the decoded payload; any
///    mismatch is a torn response (bench_e23 counts exactly this, and must
///    count zero).
///
/// The format is symmetric within one build of the library (enum byte
/// values are the in-memory enumerators); it is a serving-plane protocol,
/// not a long-term storage format.

namespace xai {
namespace serve {
namespace async {

inline constexpr uint8_t kWireVersion = 1;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  kError = 3,
};

/// Frame-type dispatch without decoding anything else. InvalidArgument on
/// short frames, bad magic, or unknown version/type.
Result<FrameType> PeekFrameType(const std::string& frame);

/// \brief Everything the front end needs for admission and a cache probe,
/// parsed without touching the instance payload. `instance_offset/count`
/// locate the deferred feature vector for later materialization.
struct WireRequestHeader {
  ExplainerKind kind = ExplainerKind::kKernelShap;
  FidelityTier fidelity = FidelityTier::kHigh;
  bool allow_degradation = true;
  bool use_cache = true;
  int desired_class = 1;
  double deadline_ms = 0.0;
  uint64_t seed = 17;
  /// Upstream trace id (0 = let the server assign one).
  uint64_t trace_id = 0;
  /// Interactive-session id (0 = stateless request).
  uint64_t session_id = 0;
  /// ContentHash64 of the instance vector — the on-wire cache key half.
  uint64_t instance_hash = 0;
  std::string model;
  std::string tenant;
  /// Byte offset of the first f64 of the instance within the frame.
  size_t instance_offset = 0;
  /// Number of f64 features following at instance_offset.
  size_t instance_count = 0;
};

/// Encodes `request` (with its session id) into one frame. The instance
/// hash is computed here — clients cannot carry a wrong one by accident.
/// XAI_CHECK-aborts on fields that exceed their length prefix (model or
/// tenant over 64 KiB, instance over 2^32 features): those are caller
/// bugs, not wire errors.
std::string EncodeRequest(const ExplainRequest& request,
                          uint64_t session_id = 0);

/// Parses the fixed header + names, skipping the instance payload (bounds
/// are still validated so a truncated instance fails here, not at
/// materialization time).
Result<WireRequestHeader> DecodeRequestHeader(const std::string& frame);

/// The request a header describes, with its instance still encoded (left
/// empty).
ExplainRequest RequestFromHeader(const WireRequestHeader& header);

/// Materializes the full ExplainRequest from a previously decoded header.
/// Verifies the instance against `header.instance_hash` — the cache-miss
/// integrity gate described in the file comment.
Result<ExplainRequest> DecodeRequestBody(const std::string& frame,
                                         const WireRequestHeader& header);

/// Header + body in one step (tests, synchronous tools). `session_id_out`
/// may be null.
Result<ExplainRequest> DecodeRequest(const std::string& frame,
                                     uint64_t* session_id_out = nullptr);

/// Encodes a served response, embedding PayloadHash(response).
std::string EncodeResponse(const ExplainResponse& response);

/// A decoded response plus the integrity hash the sender embedded. The
/// caller compares `payload_hash` against PayloadHash(response) — equal
/// means the payload crossed the wire un-torn.
struct WireResponse {
  ExplainResponse response;
  uint64_t payload_hash = 0;
};

Result<WireResponse> DecodeResponse(const std::string& frame);

/// Typed failure frame (shed, validation error, executor failure).
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
  uint64_t trace_id = 0;
};

std::string EncodeError(const Status& status, uint64_t trace_id);
Result<WireError> DecodeError(const std::string& frame);

}  // namespace async
}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_ASYNC_WIRE_H_
