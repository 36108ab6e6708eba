#include "xai/serve/async/wire.h"

#include <cstring>
#include <utility>

#include "xai/core/check.h"
#include "xai/model/serialization.h"

namespace xai {
namespace serve {
namespace async {
namespace {

constexpr char kMagic[4] = {'X', 'A', 'I', 'W'};

// ---- Writers: explicit little-endian byte packing. -----------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// u16 length prefix + bytes. Length overflow is a caller bug (frames are
/// built by our own encoder), so it aborts rather than truncating.
void PutShortString(std::string* out, const std::string& s) {
  XAI_CHECK_MSG(s.size() <= 0xFFFF,
                "wire: string field exceeds u16 length prefix");
  PutU16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

void PutHeader(std::string* out, FrameType type) {
  out->append(kMagic, sizeof(kMagic));
  PutU8(out, kWireVersion);
  PutU8(out, static_cast<uint8_t>(type));
}

// ---- Reader: bounds-checked cursor. --------------------------------------

class Cursor {
 public:
  explicit Cursor(const std::string& frame) : data_(frame) {}

  size_t offset() const { return offset_; }

  Status Skip(size_t n) {
    if (data_.size() - offset_ < n)
      return Status::InvalidArgument("wire: truncated frame");
    offset_ += n;
    return Status::OK();
  }

  /// Rejects a frame whose remaining bytes cannot hold `n` more — used to
  /// validate wire-carried element counts before sizing any allocation, so
  /// a crafted count can never force an allocation larger than the frame.
  Status Require(size_t n) const {
    if (data_.size() - offset_ < n)
      return Status::InvalidArgument("wire: truncated frame");
    return Status::OK();
  }

  Result<uint8_t> U8() {
    if (offset_ >= data_.size())
      return Status::InvalidArgument("wire: truncated frame");
    return static_cast<uint8_t>(data_[offset_++]);
  }

  Result<uint16_t> U16() {
    uint64_t v;
    XAI_RETURN_NOT_OK(Raw(2, &v));
    return static_cast<uint16_t>(v);
  }

  Result<uint32_t> U32() {
    uint64_t v;
    XAI_RETURN_NOT_OK(Raw(4, &v));
    return static_cast<uint32_t>(v);
  }

  Result<uint64_t> U64() {
    uint64_t v;
    XAI_RETURN_NOT_OK(Raw(8, &v));
    return v;
  }

  Result<int32_t> I32() {
    XAI_ASSIGN_OR_RETURN(uint32_t v, U32());
    return static_cast<int32_t>(v);
  }

  Result<int64_t> I64() {
    XAI_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }

  Result<double> F64() {
    XAI_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string> ShortString() {
    XAI_ASSIGN_OR_RETURN(uint16_t len, U16());
    if (data_.size() - offset_ < len)
      return Status::InvalidArgument("wire: truncated string field");
    std::string s = data_.substr(offset_, len);
    offset_ += len;
    return s;
  }

 private:
  Status Raw(size_t n, uint64_t* out) {
    if (data_.size() - offset_ < n)
      return Status::InvalidArgument("wire: truncated frame");
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i)
      v |= static_cast<uint64_t>(
               static_cast<uint8_t>(data_[offset_ + i]))
           << (8 * i);
    offset_ += n;
    *out = v;
    return Status::OK();
  }

  const std::string& data_;
  size_t offset_ = 0;
};

Result<Cursor> OpenFrame(const std::string& frame, FrameType want) {
  Cursor cursor(frame);
  if (frame.size() < 6)
    return Status::InvalidArgument("wire: frame shorter than header");
  if (std::memcmp(frame.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::InvalidArgument("wire: bad magic");
  XAI_RETURN_NOT_OK(cursor.Skip(sizeof(kMagic)));
  XAI_ASSIGN_OR_RETURN(uint8_t version, cursor.U8());
  if (version != kWireVersion)
    return Status::InvalidArgument("wire: unsupported version");
  XAI_ASSIGN_OR_RETURN(uint8_t type, cursor.U8());
  if (type != static_cast<uint8_t>(want))
    return Status::InvalidArgument("wire: unexpected frame type");
  return cursor;
}

constexpr uint8_t kReqFlagAllowDegradation = 1u << 0;
constexpr uint8_t kReqFlagUseCache = 1u << 1;

constexpr uint8_t kRespFlagDegraded = 1u << 0;
constexpr uint8_t kRespFlagCacheHit = 1u << 1;
constexpr uint8_t kRespFlagDeadlineMet = 1u << 2;

constexpr uint8_t kMaxKind =
    static_cast<uint8_t>(ExplainerKind::kCounterfactual);
constexpr uint8_t kMaxTier = static_cast<uint8_t>(FidelityTier::kMinimal);
constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(StatusCode::kOverloaded);

bool AttributionShaped(ExplainerKind kind) {
  return kind != ExplainerKind::kAnchors &&
         kind != ExplainerKind::kCounterfactual;
}

}  // namespace

Result<FrameType> PeekFrameType(const std::string& frame) {
  if (frame.size() < 6)
    return Status::InvalidArgument("wire: frame shorter than header");
  if (std::memcmp(frame.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::InvalidArgument("wire: bad magic");
  if (static_cast<uint8_t>(frame[4]) != kWireVersion)
    return Status::InvalidArgument("wire: unsupported version");
  const uint8_t type = static_cast<uint8_t>(frame[5]);
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kError))
    return Status::InvalidArgument("wire: unknown frame type");
  return static_cast<FrameType>(type);
}

std::string EncodeRequest(const ExplainRequest& request,
                          uint64_t session_id) {
  XAI_CHECK_MSG(request.instance.size() <= 0xFFFFFFFFull,
                "wire: instance exceeds u32 length prefix");
  std::string out;
  out.reserve(64 + request.model.size() + request.tenant.size() +
              request.instance.size() * sizeof(double));
  PutHeader(&out, FrameType::kRequest);
  uint8_t flags = 0;
  if (request.allow_degradation) flags |= kReqFlagAllowDegradation;
  if (request.use_cache) flags |= kReqFlagUseCache;
  PutU8(&out, flags);
  PutU8(&out, static_cast<uint8_t>(request.kind));
  PutU8(&out, static_cast<uint8_t>(request.fidelity));
  PutI32(&out, request.desired_class);
  PutF64(&out, request.deadline_ms);
  PutU64(&out, request.seed);
  PutU64(&out, request.trace.trace_id);
  PutU64(&out, session_id);
  PutU64(&out, ContentHash64(request.instance));
  PutShortString(&out, request.model);
  PutShortString(&out, request.tenant);
  PutU32(&out, static_cast<uint32_t>(request.instance.size()));
  for (double v : request.instance) PutF64(&out, v);
  return out;
}

Result<WireRequestHeader> DecodeRequestHeader(const std::string& frame) {
  XAI_ASSIGN_OR_RETURN(Cursor cursor,
                       OpenFrame(frame, FrameType::kRequest));
  WireRequestHeader header;
  XAI_ASSIGN_OR_RETURN(uint8_t flags, cursor.U8());
  header.allow_degradation = (flags & kReqFlagAllowDegradation) != 0;
  header.use_cache = (flags & kReqFlagUseCache) != 0;
  XAI_ASSIGN_OR_RETURN(uint8_t kind, cursor.U8());
  if (kind > kMaxKind)
    return Status::InvalidArgument("wire: unknown explainer kind");
  header.kind = static_cast<ExplainerKind>(kind);
  XAI_ASSIGN_OR_RETURN(uint8_t tier, cursor.U8());
  if (tier > kMaxTier)
    return Status::InvalidArgument("wire: unknown fidelity tier");
  header.fidelity = static_cast<FidelityTier>(tier);
  XAI_ASSIGN_OR_RETURN(header.desired_class, cursor.I32());
  XAI_ASSIGN_OR_RETURN(header.deadline_ms, cursor.F64());
  XAI_ASSIGN_OR_RETURN(header.seed, cursor.U64());
  XAI_ASSIGN_OR_RETURN(header.trace_id, cursor.U64());
  XAI_ASSIGN_OR_RETURN(header.session_id, cursor.U64());
  XAI_ASSIGN_OR_RETURN(header.instance_hash, cursor.U64());
  XAI_ASSIGN_OR_RETURN(header.model, cursor.ShortString());
  XAI_ASSIGN_OR_RETURN(header.tenant, cursor.ShortString());
  XAI_ASSIGN_OR_RETURN(uint32_t count, cursor.U32());
  header.instance_offset = cursor.offset();
  header.instance_count = count;
  // Validate the skipped payload's bounds now: a frame that lies about its
  // instance length is rejected before it can reach the cache-probe fast
  // path.
  XAI_RETURN_NOT_OK(cursor.Skip(static_cast<size_t>(count) * 8));
  return header;
}

ExplainRequest RequestFromHeader(const WireRequestHeader& header) {
  ExplainRequest request;
  request.model = header.model;
  request.tenant = header.tenant;
  request.kind = header.kind;
  request.fidelity = header.fidelity;
  request.allow_degradation = header.allow_degradation;
  request.use_cache = header.use_cache;
  request.desired_class = header.desired_class;
  request.deadline_ms = header.deadline_ms;
  request.seed = header.seed;
  request.trace.trace_id = header.trace_id;
  return request;
}

Result<ExplainRequest> DecodeRequestBody(const std::string& frame,
                                         const WireRequestHeader& header) {
  if (header.instance_offset + header.instance_count * 8 > frame.size())
    return Status::InvalidArgument("wire: truncated instance payload");
  ExplainRequest request = RequestFromHeader(header);
  request.instance.resize(header.instance_count);
  const char* base = frame.data() + header.instance_offset;
  for (size_t i = 0; i < header.instance_count; ++i) {
    uint64_t bits = 0;
    for (size_t b = 0; b < 8; ++b)
      bits |= static_cast<uint64_t>(
                  static_cast<uint8_t>(base[i * 8 + b]))
              << (8 * b);
    std::memcpy(&request.instance[i], &bits, sizeof(double));
  }
  // Integrity gate: the hash the cache was probed with must describe the
  // instance we are about to compute on (and cache under).
  if (ContentHash64(request.instance) != header.instance_hash)
    return Status::InvalidArgument(
        "wire: instance hash does not match instance payload");
  return request;
}

Result<ExplainRequest> DecodeRequest(const std::string& frame,
                                     uint64_t* session_id_out) {
  XAI_ASSIGN_OR_RETURN(WireRequestHeader header,
                       DecodeRequestHeader(frame));
  if (session_id_out != nullptr) *session_id_out = header.session_id;
  return DecodeRequestBody(frame, header);
}

std::string EncodeResponse(const ExplainResponse& response) {
  std::string out;
  PutHeader(&out, FrameType::kResponse);
  PutU8(&out, static_cast<uint8_t>(response.kind));
  PutU8(&out, static_cast<uint8_t>(response.served_tier));
  uint8_t flags = 0;
  if (response.degraded) flags |= kRespFlagDegraded;
  if (response.cache_hit) flags |= kRespFlagCacheHit;
  if (response.deadline_met) flags |= kRespFlagDeadlineMet;
  PutU8(&out, flags);
  PutU64(&out, response.model_fingerprint);
  PutI64(&out, response.planned_evals);
  PutF64(&out, response.latency_ms);
  PutU64(&out, PayloadHash(response));
  if (AttributionShaped(response.kind)) {
    const AttributionExplanation& a = response.attribution;
    XAI_CHECK_MSG(a.attributions.size() <= 0xFFFFFFFFull,
                  "wire: attribution vector exceeds u32 length prefix");
    PutF64(&out, a.base_value);
    PutF64(&out, a.prediction);
    PutU32(&out, static_cast<uint32_t>(a.attributions.size()));
    for (double v : a.attributions) PutF64(&out, v);
    XAI_CHECK_MSG(a.feature_names.size() <= 0xFFFF,
                  "wire: too many feature names");
    PutU16(&out, static_cast<uint16_t>(a.feature_names.size()));
    for (const std::string& name : a.feature_names)
      PutShortString(&out, name);
  } else if (response.kind == ExplainerKind::kAnchors) {
    const AnchorRule& r = response.anchor;
    PutF64(&out, r.precision);
    PutF64(&out, r.precision_lb);
    PutF64(&out, r.coverage);
    PutI32(&out, r.samples_used);
    XAI_CHECK_MSG(r.features.size() <= 0xFFFF,
                  "wire: too many anchor features");
    PutU16(&out, static_cast<uint16_t>(r.features.size()));
    for (int f : r.features) PutI32(&out, f);
    XAI_CHECK_MSG(r.description.size() <= 0xFFFF,
                  "wire: too many anchor predicates");
    PutU16(&out, static_cast<uint16_t>(r.description.size()));
    for (const std::string& predicate : r.description)
      PutShortString(&out, predicate);
  } else {
    XAI_CHECK_MSG(response.counterfactuals.size() <= 0xFFFF,
                  "wire: too many counterfactuals");
    PutU16(&out,
           static_cast<uint16_t>(response.counterfactuals.size()));
    for (const Counterfactual& cf : response.counterfactuals) {
      PutF64(&out, cf.prediction);
      PutU8(&out, cf.valid ? 1 : 0);
      PutF64(&out, cf.proximity);
      PutI32(&out, cf.sparsity);
      PutF64(&out, cf.plausibility_distance);
      XAI_CHECK_MSG(cf.x.size() <= 0xFFFFFFFFull,
                    "wire: counterfactual exceeds u32 length prefix");
      PutU32(&out, static_cast<uint32_t>(cf.x.size()));
      for (double v : cf.x) PutF64(&out, v);
    }
  }
  return out;
}

Result<WireResponse> DecodeResponse(const std::string& frame) {
  XAI_ASSIGN_OR_RETURN(Cursor cursor,
                       OpenFrame(frame, FrameType::kResponse));
  WireResponse out;
  ExplainResponse& response = out.response;
  XAI_ASSIGN_OR_RETURN(uint8_t kind, cursor.U8());
  if (kind > kMaxKind)
    return Status::InvalidArgument("wire: unknown explainer kind");
  response.kind = static_cast<ExplainerKind>(kind);
  XAI_ASSIGN_OR_RETURN(uint8_t tier, cursor.U8());
  if (tier > kMaxTier)
    return Status::InvalidArgument("wire: unknown fidelity tier");
  response.served_tier = static_cast<FidelityTier>(tier);
  XAI_ASSIGN_OR_RETURN(uint8_t flags, cursor.U8());
  response.degraded = (flags & kRespFlagDegraded) != 0;
  response.cache_hit = (flags & kRespFlagCacheHit) != 0;
  response.deadline_met = (flags & kRespFlagDeadlineMet) != 0;
  XAI_ASSIGN_OR_RETURN(response.model_fingerprint, cursor.U64());
  XAI_ASSIGN_OR_RETURN(response.planned_evals, cursor.I64());
  XAI_ASSIGN_OR_RETURN(response.latency_ms, cursor.F64());
  XAI_ASSIGN_OR_RETURN(out.payload_hash, cursor.U64());
  if (AttributionShaped(response.kind)) {
    AttributionExplanation& a = response.attribution;
    XAI_ASSIGN_OR_RETURN(a.base_value, cursor.F64());
    XAI_ASSIGN_OR_RETURN(a.prediction, cursor.F64());
    XAI_ASSIGN_OR_RETURN(uint32_t n, cursor.U32());
    XAI_RETURN_NOT_OK(cursor.Require(static_cast<size_t>(n) * 8));
    a.attributions.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      XAI_ASSIGN_OR_RETURN(a.attributions[i], cursor.F64());
    }
    XAI_ASSIGN_OR_RETURN(uint16_t names, cursor.U16());
    a.feature_names.resize(names);
    for (uint16_t i = 0; i < names; ++i) {
      XAI_ASSIGN_OR_RETURN(a.feature_names[i], cursor.ShortString());
    }
  } else if (response.kind == ExplainerKind::kAnchors) {
    AnchorRule& r = response.anchor;
    XAI_ASSIGN_OR_RETURN(r.precision, cursor.F64());
    XAI_ASSIGN_OR_RETURN(r.precision_lb, cursor.F64());
    XAI_ASSIGN_OR_RETURN(r.coverage, cursor.F64());
    XAI_ASSIGN_OR_RETURN(r.samples_used, cursor.I32());
    XAI_ASSIGN_OR_RETURN(uint16_t features, cursor.U16());
    r.features.resize(features);
    for (uint16_t i = 0; i < features; ++i) {
      XAI_ASSIGN_OR_RETURN(r.features[i], cursor.I32());
    }
    XAI_ASSIGN_OR_RETURN(uint16_t predicates, cursor.U16());
    r.description.resize(predicates);
    for (uint16_t i = 0; i < predicates; ++i) {
      XAI_ASSIGN_OR_RETURN(r.description[i], cursor.ShortString());
    }
  } else {
    XAI_ASSIGN_OR_RETURN(uint16_t count, cursor.U16());
    response.counterfactuals.resize(count);
    for (uint16_t i = 0; i < count; ++i) {
      Counterfactual& cf = response.counterfactuals[i];
      XAI_ASSIGN_OR_RETURN(cf.prediction, cursor.F64());
      XAI_ASSIGN_OR_RETURN(uint8_t valid, cursor.U8());
      cf.valid = valid != 0;
      XAI_ASSIGN_OR_RETURN(cf.proximity, cursor.F64());
      XAI_ASSIGN_OR_RETURN(cf.sparsity, cursor.I32());
      XAI_ASSIGN_OR_RETURN(cf.plausibility_distance, cursor.F64());
      XAI_ASSIGN_OR_RETURN(uint32_t n, cursor.U32());
      XAI_RETURN_NOT_OK(cursor.Require(static_cast<size_t>(n) * 8));
      cf.x.resize(n);
      for (uint32_t j = 0; j < n; ++j) {
        XAI_ASSIGN_OR_RETURN(cf.x[j], cursor.F64());
      }
    }
  }
  return out;
}

std::string EncodeError(const Status& status, uint64_t trace_id) {
  XAI_CHECK_MSG(!status.ok(), "EncodeError on an OK status");
  std::string out;
  PutHeader(&out, FrameType::kError);
  PutU8(&out, static_cast<uint8_t>(status.code()));
  PutU64(&out, trace_id);
  // Unlike the request/response fields (built from our own state, where
  // overflow is a caller bug), error text embeds client-supplied strings —
  // tenant and model names up to 64 KiB arrive legally off the wire — so
  // truncate to the u16 prefix instead of CHECK-aborting the server.
  const std::string& message = status.message();
  const size_t len = message.size() < 0xFFFF ? message.size() : 0xFFFF;
  PutU16(&out, static_cast<uint16_t>(len));
  out.append(message.data(), len);
  return out;
}

Result<WireError> DecodeError(const std::string& frame) {
  XAI_ASSIGN_OR_RETURN(Cursor cursor, OpenFrame(frame, FrameType::kError));
  WireError error;
  XAI_ASSIGN_OR_RETURN(uint8_t code, cursor.U8());
  if (code == 0 || code > kMaxStatusCode)
    return Status::InvalidArgument("wire: unknown status code");
  error.code = static_cast<StatusCode>(code);
  XAI_ASSIGN_OR_RETURN(error.trace_id, cursor.U64());
  XAI_ASSIGN_OR_RETURN(error.message, cursor.ShortString());
  return error;
}

}  // namespace async
}  // namespace serve
}  // namespace xai
