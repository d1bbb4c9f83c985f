#include "src/forensics/scenario_spec.h"

#include <utility>

#include "src/fault/fault_json.h"

namespace juggler {
namespace {

// Every key ToJson() can emit; FromJson preserves anything else verbatim
// in `extra` so future fields survive a round trip through this build.
bool IsKnownSpecKey(const std::string& key) {
  static const char* const kKnown[] = {
      "seed",
      "family",
      "transfer_bytes",
      "time_limit_ns",
      "num_windows",
      "link_rate_bps",
      "base_delay_ns",
      "reorder_delay_ns",
      "int_coalesce_ns",
      "inseq_timeout_ns",
      "ofo_timeout_ns",
      "max_flows",
      "shards",
      "shard_mailbox_capacity",
      "check_shard_divergence",
      "use_explicit_faults",
      "faults",
      "use_explicit_flaps",
      "flaps",
      "plant_flush_skew",
      "plant_wedge",
      "rx_driver",
      "plant_corec_wedge",
      "app_kind",
      "app_sessions",
      "app_requests_per_session",
      "app_request_bytes",
      "app_response_bytes",
      "app_chunk_bytes",
      "app_transfer_bytes",
      "app_issue_interval_ns",
      "app_attempt_timeout_ns",
      "app_deadline_ns",
      "app_max_attempts",
      "app_backoff_base_ns",
      "app_backoff_max_ns",
      "app_jitter_pct",
      "plant_stale_token",
      "overload",
      "overload_pool_capacity",
      "overload_ring_capacity",
  };
  for (const char* known : kKnown) {
    if (key == known) {
      return true;
    }
  }
  return false;
}

}  // namespace

void ScenarioSpec::Materialize() {
  if (!chaos.use_explicit_faults) {
    chaos.fault_override = DeriveChaosFaults(chaos);
    chaos.use_explicit_faults = true;
  }
  if (!chaos.use_explicit_flaps) {
    chaos.flap_override = DeriveChaosFlaps(chaos);
    chaos.use_explicit_flaps = true;
  }
}

size_t ScenarioSpec::TimelineEvents() const {
  const size_t fault_windows = chaos.use_explicit_faults
                                   ? chaos.fault_override.windows().size()
                                   : DeriveChaosFaults(chaos).windows().size();
  const size_t flap_windows =
      chaos.use_explicit_flaps ? chaos.flap_override.size() : DeriveChaosFlaps(chaos).size();
  return fault_windows + flap_windows + chaos.overload.windows.size();
}

Json ScenarioSpec::ToJson() const {
  const ChaosOptions& c = chaos;
  Json j = Json::Object();
  j.Set("seed", Json::Uint(c.seed));
  j.Set("family", Json::Str(FaultFamilyName(c.family)));
  j.Set("transfer_bytes", Json::Uint(c.transfer_bytes));
  j.Set("time_limit_ns", Json::Int(c.time_limit));
  j.Set("num_windows", Json::Int(c.num_windows));
  j.Set("link_rate_bps", Json::Int(c.link_rate_bps));
  j.Set("base_delay_ns", Json::Int(c.base_delay));
  j.Set("reorder_delay_ns", Json::Int(c.reorder_delay));
  j.Set("int_coalesce_ns", Json::Int(c.int_coalesce));
  j.Set("inseq_timeout_ns", Json::Int(c.inseq_timeout));
  j.Set("ofo_timeout_ns", Json::Int(c.ofo_timeout));
  j.Set("max_flows", Json::Uint(c.max_flows));
  j.Set("shards", Json::Uint(c.shards));
  j.Set("shard_mailbox_capacity", Json::Uint(c.shard_mailbox_capacity));
  j.Set("check_shard_divergence", Json::Bool(check_shard_divergence));
  j.Set("use_explicit_faults", Json::Bool(c.use_explicit_faults));
  if (c.use_explicit_faults) {
    j.Set("faults", FaultTimelineToJson(c.fault_override));
  }
  j.Set("use_explicit_flaps", Json::Bool(c.use_explicit_flaps));
  if (c.use_explicit_flaps) {
    j.Set("flaps", FlapWindowsToJson(c.flap_override));
  }
  if (c.plant_flush_skew) {
    j.Set("plant_flush_skew", Json::Bool(true));
  }
  if (plant_wedge) {
    j.Set("plant_wedge", Json::Bool(true));
  }
  // Driver key only when non-default: pre-COREC specs (and every rss spec)
  // re-serialize byte-identically.
  if (c.rx_driver != RxDriverKind::kRss) {
    j.Set("rx_driver", Json::Str(RxDriverKindName(c.rx_driver)));
  }
  if (c.plant_corec_wedge) {
    j.Set("plant_corec_wedge", Json::Bool(true));
  }
  // App-workload block only when one rides the run: specs written before
  // the app layer existed re-serialize byte-identically.
  const AppWorkloadOptions& app = c.app;
  if (app.enabled()) {
    j.Set("app_kind", Json::Str(AppWorkloadKindName(app.kind)));
    j.Set("app_sessions", Json::Uint(app.sessions));
    j.Set("app_requests_per_session", Json::Uint(app.requests_per_session));
    j.Set("app_request_bytes", Json::Uint(app.request_bytes));
    j.Set("app_response_bytes", Json::Uint(app.response_bytes));
    j.Set("app_chunk_bytes", Json::Uint(app.chunk_bytes));
    j.Set("app_transfer_bytes", Json::Uint(app.transfer_bytes_per_session));
    j.Set("app_issue_interval_ns", Json::Int(app.issue_interval));
    j.Set("app_attempt_timeout_ns", Json::Int(app.retry.attempt_timeout));
    j.Set("app_deadline_ns", Json::Int(app.retry.deadline));
    j.Set("app_max_attempts", Json::Uint(app.retry.max_attempts));
    j.Set("app_backoff_base_ns", Json::Int(app.retry.backoff_base));
    j.Set("app_backoff_max_ns", Json::Int(app.retry.backoff_max));
    j.Set("app_jitter_pct", Json::Uint(app.retry.jitter_pct));
    if (app.plant_stale_token) {
      j.Set("plant_stale_token", Json::Bool(true));
    }
  }
  // Overload block only when pressure windows ride the run, same contract
  // as the app block: pre-overload specs re-serialize byte-identically.
  if (c.overload.enabled()) {
    j.Set("overload", OverloadWindowsToJson(c.overload.windows));
    j.Set("overload_pool_capacity", Json::Uint(c.overload.pool_capacity));
    j.Set("overload_ring_capacity", Json::Uint(c.overload.ring_capacity));
  }
  // Unknown members last, in the order the original document carried them.
  // One normalization pass later, re-serialization is a fixed point.
  for (const auto& member : extra.members()) {
    j.Set(member.first, member.second);
  }
  return j;
}

bool ScenarioSpec::FromJson(const Json& json, ScenarioSpec* out, std::string* error) {
  if (!json.is_object()) {
    *error = "spec: not an object";
    return false;
  }
  ScenarioSpec s;
  ChaosOptions& c = s.chaos;
  std::string family_name = FaultFamilyName(c.family);
  int64_t num_windows = c.num_windows;
  if (!json.GetUint("seed", &c.seed) || !json.GetString("family", &family_name) ||
      !json.GetUint("transfer_bytes", &c.transfer_bytes) ||
      !json.GetInt("time_limit_ns", &c.time_limit) || !json.GetInt("num_windows", &num_windows) ||
      !json.GetInt("link_rate_bps", &c.link_rate_bps) ||
      !json.GetInt("base_delay_ns", &c.base_delay) ||
      !json.GetInt("reorder_delay_ns", &c.reorder_delay) ||
      !json.GetInt("int_coalesce_ns", &c.int_coalesce) ||
      !json.GetInt("inseq_timeout_ns", &c.inseq_timeout) ||
      !json.GetInt("ofo_timeout_ns", &c.ofo_timeout) || !json.GetUint("max_flows", &c.max_flows) ||
      !json.GetUint("shards", &c.shards) ||
      !json.GetUint("shard_mailbox_capacity", &c.shard_mailbox_capacity) ||
      !json.GetBool("check_shard_divergence", &s.check_shard_divergence) ||
      !json.GetBool("use_explicit_faults", &c.use_explicit_faults) ||
      !json.GetBool("use_explicit_flaps", &c.use_explicit_flaps) ||
      !json.GetBool("plant_flush_skew", &c.plant_flush_skew) ||
      !json.GetBool("plant_wedge", &s.plant_wedge) ||
      !json.GetBool("plant_corec_wedge", &c.plant_corec_wedge)) {
    *error = "spec: field with wrong type";
    return false;
  }
  if (!ParseFaultFamily(family_name.c_str(), &c.family)) {
    *error = "spec: unknown family \"" + family_name + "\"";
    return false;
  }
  // Receive driver: absent-tolerant (pre-COREC specs carry no key).
  std::string rx_driver_name = RxDriverKindName(c.rx_driver);
  if (!json.GetString("rx_driver", &rx_driver_name)) {
    *error = "spec: rx_driver with wrong type";
    return false;
  }
  if (!ParseRxDriverKind(rx_driver_name, &c.rx_driver)) {
    *error = "spec: unknown rx_driver \"" + rx_driver_name + "\"";
    return false;
  }
  c.num_windows = static_cast<int>(num_windows);
  if (c.transfer_bytes == 0 || c.time_limit <= 0 || c.num_windows < 1 || c.link_rate_bps <= 0 ||
      c.base_delay <= 0 || c.reorder_delay < 0 || c.int_coalesce < 0 || c.inseq_timeout <= 0 ||
      c.ofo_timeout <= 0 || c.max_flows == 0) {
    *error = "spec: parameter out of range";
    return false;
  }
  if (const Json* f = json.Find("faults")) {
    if (!FaultTimelineFromJson(*f, &c.fault_override, error)) {
      return false;
    }
  }
  if (const Json* f = json.Find("flaps")) {
    if (!FlapWindowsFromJson(*f, &c.flap_override, error)) {
      return false;
    }
  }
  // App workload: every field absent-tolerant (pre-app specs carry none).
  AppWorkloadOptions& app = c.app;
  std::string app_kind_name = AppWorkloadKindName(app.kind);
  uint64_t app_sessions = app.sessions;
  uint64_t app_requests = app.requests_per_session;
  uint64_t app_max_attempts = app.retry.max_attempts;
  uint64_t app_jitter_pct = app.retry.jitter_pct;
  if (!json.GetString("app_kind", &app_kind_name) ||
      !json.GetUint("app_sessions", &app_sessions) ||
      !json.GetUint("app_requests_per_session", &app_requests) ||
      !json.GetUint("app_request_bytes", &app.request_bytes) ||
      !json.GetUint("app_response_bytes", &app.response_bytes) ||
      !json.GetUint("app_chunk_bytes", &app.chunk_bytes) ||
      !json.GetUint("app_transfer_bytes", &app.transfer_bytes_per_session) ||
      !json.GetInt("app_issue_interval_ns", &app.issue_interval) ||
      !json.GetInt("app_attempt_timeout_ns", &app.retry.attempt_timeout) ||
      !json.GetInt("app_deadline_ns", &app.retry.deadline) ||
      !json.GetUint("app_max_attempts", &app_max_attempts) ||
      !json.GetInt("app_backoff_base_ns", &app.retry.backoff_base) ||
      !json.GetInt("app_backoff_max_ns", &app.retry.backoff_max) ||
      !json.GetUint("app_jitter_pct", &app_jitter_pct) ||
      !json.GetBool("plant_stale_token", &app.plant_stale_token)) {
    *error = "spec: app field with wrong type";
    return false;
  }
  if (!ParseAppWorkloadKind(app_kind_name.c_str(), &app.kind)) {
    *error = "spec: unknown app_kind \"" + app_kind_name + "\"";
    return false;
  }
  app.sessions = static_cast<uint32_t>(app_sessions);
  app.requests_per_session = static_cast<uint32_t>(app_requests);
  app.retry.max_attempts = static_cast<uint32_t>(app_max_attempts);
  app.retry.jitter_pct = static_cast<uint32_t>(app_jitter_pct);
  if (app.enabled()) {
    if (app.sessions == 0 || app.request_bytes == 0 || app.response_bytes == 0 ||
        app.chunk_bytes == 0 || app.transfer_bytes_per_session == 0 ||
        app.issue_interval < 0 || app.retry.attempt_timeout <= 0 ||
        app.retry.deadline <= 0 || app.retry.max_attempts == 0 ||
        app.retry.backoff_base < 0 || app.retry.backoff_max < app.retry.backoff_base ||
        app.retry.jitter_pct > 100) {
      *error = "spec: app parameter out of range";
      return false;
    }
  }
  // Overload block: absent-tolerant like the app block.
  if (const Json* o = json.Find("overload")) {
    if (!OverloadWindowsFromJson(*o, &c.overload.windows, error)) {
      return false;
    }
  }
  if (!json.GetUint("overload_pool_capacity", &c.overload.pool_capacity) ||
      !json.GetUint("overload_ring_capacity", &c.overload.ring_capacity)) {
    *error = "spec: overload field with wrong type";
    return false;
  }
  for (const auto& member : json.members()) {
    if (!IsKnownSpecKey(member.first)) {
      s.extra.Set(member.first, member.second);
    }
  }
  *out = std::move(s);
  return true;
}

// Transfer and fault-window bounds for sampled specs, chosen so a correct
// stack always completes the transfer inside time_limit (the fuzzer hunts
// bugs, not resource limits).
constexpr uint64_t kMinSampledTransferBytes = 400'000;
constexpr uint64_t kMaxSampledTransferBytes = 2'000'000;
constexpr uint64_t kMaxSampledWindows = 4;
// Probability a sampled spec also runs the shard-divergence oracle
// (roughly doubles that spec's cost).
constexpr double kShardDivergenceProb = 0.25;

ScenarioSpec SampleScenarioSpec(Rng* rng, const SampleLimits& limits) {
  ScenarioSpec s;
  ChaosOptions& c = s.chaos;
  c.seed = rng->NextU64();
  // kMixed plus the five concrete families, equally weighted.
  const uint64_t pick = rng->NextBounded(kNumFaultFamilies + 1);
  c.family = pick == kNumFaultFamilies ? FaultFamily::kMixed : static_cast<FaultFamily>(pick);
  c.transfer_bytes =
      kMinSampledTransferBytes +
      rng->NextBounded(kMaxSampledTransferBytes - kMinSampledTransferBytes + 1);
  c.num_windows = 1 + static_cast<int>(rng->NextBounded(kMaxSampledWindows));
  c.reorder_delay = rng->NextInRange(Us(100), Us(400));
  c.int_coalesce = rng->NextInRange(Us(60), Us(200));
  // inseq below ofo, ofo comfortably above the reorder delay the family
  // generators assume — the sampler explores timing, not configurations the
  // stack documents as unsupported.
  c.inseq_timeout = rng->NextInRange(Us(30), Us(90));
  c.ofo_timeout = c.reorder_delay + rng->NextInRange(Us(50), Us(300));
  c.max_flows = 8 + rng->NextBounded(57);  // [8, 64]
  if (rng->NextBool(0.3)) {
    c.shards = 1 + rng->NextBounded(4);  // sharded engine path
  }
  s.check_shard_divergence = rng->NextBool(kShardDivergenceProb);
  // App-workload draws come from a stream derived from the spec's own seed,
  // not from `rng`: adding (or later extending) them consumes nothing from
  // the main stream, so every pre-app pinned fuzz seed still samples the
  // exact same specs.
  Rng app_rng(c.seed ^ 0xA02B'DBF7'BB3C'0A7ULL);
  if (app_rng.NextBool(limits.app_prob)) {
    AppWorkloadOptions& a = c.app;
    a.kind = static_cast<AppWorkloadKind>(1 + app_rng.NextBounded(4));
    a.sessions = 1 + static_cast<uint32_t>(app_rng.NextBounded(3));            // [1, 3]
    a.requests_per_session = 2 + static_cast<uint32_t>(app_rng.NextBounded(8));  // [2, 9]
    a.request_bytes = 128 + app_rng.NextBounded(897);        // [128, 1024]
    a.response_bytes = 4'096 + app_rng.NextBounded(20'481);  // [4 KiB, 24 KiB]
    a.chunk_bytes = 16'384 + app_rng.NextBounded(49'153);    // [16 KiB, 64 KiB]
    // At most 3 chunks per session: sequential bulk sessions fit inside
    // time_limit even if every chunk runs to its 160 ms deadline.
    a.transfer_bytes_per_session = a.chunk_bytes * (1 + app_rng.NextBounded(3));
    a.issue_interval = app_rng.NextInRange(Ms(1), Ms(3));
    // Retry policy stays at the defaults: generous deadlines so a correct
    // stack always completes — the fuzzer hunts bugs, not resource limits.
  }
  // Receive-driver draw from its own seed-derived stream, like the app and
  // overload draws: pinned fuzz seeds keep sampling the exact specs they
  // always did, they just sometimes run them on the COREC driver now.
  Rng rxd_rng(c.seed ^ 0xC04E'C0DD'5EED'F00DULL);
  if (rxd_rng.NextBool(limits.corec_prob)) {
    c.rx_driver = RxDriverKind::kCorec;
  }
  // Overload draws come from their own seed-derived stream for the same
  // reason: a pinned fuzz seed samples the same non-overload fields whether
  // or not this build knows about overload windows.
  Rng ovl_rng(c.seed ^ 0x0B'E7D0'AD5E'ED11ULL);
  if (ovl_rng.NextBool(limits.overload_prob)) {
    c.overload.pool_capacity = 1'024 + ovl_rng.NextBounded(7'169);  // [1 Ki, 8 Ki]
    const int count = 1 + static_cast<int>(ovl_rng.NextBounded(2));
    // Sequential non-overlapping windows early in the run: pressure flares
    // and subsides while the transfer is in flight, and the tail of
    // time_limit is always pressure-free recovery time.
    TimeNs cursor = Ms(5) + ovl_rng.NextInRange(0, Ms(10));
    for (int i = 0; i < count; ++i) {
      OverloadWindow w;
      w.kind = static_cast<OverloadKind>(ovl_rng.NextBounded(3));
      w.start = cursor;
      w.end = w.start + ovl_rng.NextInRange(Ms(5), Ms(25));
      w.flows = 32 + static_cast<uint32_t>(ovl_rng.NextBounded(97));            // [32, 128]
      w.packets_per_flow = 2 + static_cast<uint32_t>(ovl_rng.NextBounded(5));   // [2, 6]
      w.burst_interval = ovl_rng.NextInRange(Us(100), Us(400));
      w.cap_pct = 10 + static_cast<uint32_t>(ovl_rng.NextBounded(41));          // [10, 50]
      c.overload.windows.push_back(w);
      cursor = w.end + ovl_rng.NextInRange(Ms(2), Ms(10));
    }
  }
  return s;
}

}  // namespace juggler
