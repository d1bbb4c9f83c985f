#include "src/forensics/spec_executor.h"

#include <utility>

namespace juggler {
namespace {

bool LooksLikeSanitizerReport(const std::string& stderr_text) {
  return stderr_text.find("AddressSanitizer") != std::string::npos ||
         stderr_text.find("ThreadSanitizer") != std::string::npos ||
         stderr_text.find("LeakSanitizer") != std::string::npos ||
         stderr_text.find("runtime error:") != std::string::npos;
}

// First line of stderr that carries information (JUG_CHECK / sanitizer
// headline), for signature detail.
std::string FirstInterestingLine(const std::string& text) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    if (end > start + 1) {
      return text.substr(start, end - start);
    }
    start = end + 1;
  }
  return "";
}

}  // namespace

Json SpecRunReport::ToJson() const {
  Json j = Json::Object();
  j.Set("ok", Json::Bool(ok));
  j.Set("completed", Json::Bool(completed));
  j.Set("streams_match", Json::Bool(streams_match));
  j.Set("violations", Json::Uint(violations));
  Json msgs = Json::Array();
  for (const std::string& m : violation_messages) {
    msgs.Push(Json::Str(m));
  }
  j.Set("violation_messages", std::move(msgs));
  j.Set("digest", Json::Uint(digest));
  j.Set("digest_shard1", Json::Uint(digest_shard1));
  j.Set("digest_shard2", Json::Uint(digest_shard2));
  j.Set("diverged", Json::Bool(diverged));
  j.Set("exception", Json::Str(exception));
  j.Set("mailbox_hwm", Json::Uint(mailbox_hwm));
  j.Set("mailbox_overflows", Json::Uint(mailbox_overflows));
  j.Set("app_issued", Json::Uint(app_issued));
  j.Set("app_retries", Json::Uint(app_retries));
  j.Set("app_timeouts", Json::Uint(app_timeouts));
  j.Set("app_executions", Json::Uint(app_executions));
  j.Set("app_duplicates_suppressed", Json::Uint(app_duplicates_suppressed));
  return j;
}

bool SpecRunReport::FromJson(const Json& json, SpecRunReport* out, std::string* error) {
  if (!json.is_object()) {
    *error = "report: not an object";
    return false;
  }
  SpecRunReport r;
  if (!json.GetBool("ok", &r.ok) || !json.GetBool("completed", &r.completed) ||
      !json.GetBool("streams_match", &r.streams_match) ||
      !json.GetUint("violations", &r.violations) || !json.GetUint("digest", &r.digest) ||
      !json.GetUint("digest_shard1", &r.digest_shard1) ||
      !json.GetUint("digest_shard2", &r.digest_shard2) || !json.GetBool("diverged", &r.diverged) ||
      !json.GetString("exception", &r.exception)) {
    *error = "report: field with wrong type";
    return false;
  }
  // Optional (absent in pre-observability / pre-app reports): GetUint
  // leaves the zero default in place when the key is missing.
  if (!json.GetUint("mailbox_hwm", &r.mailbox_hwm) ||
      !json.GetUint("mailbox_overflows", &r.mailbox_overflows) ||
      !json.GetUint("app_issued", &r.app_issued) ||
      !json.GetUint("app_retries", &r.app_retries) ||
      !json.GetUint("app_timeouts", &r.app_timeouts) ||
      !json.GetUint("app_executions", &r.app_executions) ||
      !json.GetUint("app_duplicates_suppressed", &r.app_duplicates_suppressed)) {
    *error = "report: field with wrong type";
    return false;
  }
  if (const Json* msgs = json.Find("violation_messages")) {
    if (!msgs->is_array()) {
      *error = "report: violation_messages not an array";
      return false;
    }
    for (const Json& m : msgs->items()) {
      r.violation_messages.push_back(m.AsString());
    }
  }
  *out = std::move(r);
  return true;
}

SpecRunReport RunSpecInProcess(const ScenarioSpec& spec) {
  SpecRunReport rep;
  if (spec.plant_wedge) {
    // Test-only: simulate a wedged child (stuck barrier, livelocked loop).
    // volatile makes the spin a side effect the compiler must keep.
    volatile uint64_t spin = 0;
    for (;;) {
      ++spin;
    }
  }
  ChaosOptions opt = spec.chaos;
  // Metrics snapshotting happens after the run finishes, so turning it on
  // here cannot perturb the datapath or the digest; it is how the mailbox
  // pressure counters reach the report (and thence the bundle).
  opt.obs.metrics = true;
  try {
    const ChaosResult r = RunChaos(opt);
    rep.ok = r.ok;
    rep.completed = r.juggler.completed && r.baseline.completed;
    rep.streams_match = r.streams_match;
    rep.violations = r.juggler.violations + r.baseline.violations;
    for (const auto& res : {r.juggler, r.baseline}) {
      for (const std::string& m : res.violation_messages) {
        rep.violation_messages.push_back(res.engine + ": " + m);
      }
    }
    rep.digest = r.juggler.digest;
    rep.app_issued = r.juggler.app.issued;
    rep.app_retries = r.juggler.app.retries;
    rep.app_timeouts = r.juggler.app.timeouts;
    rep.app_executions = r.juggler.app.executions;
    rep.app_duplicates_suppressed = r.juggler.app.duplicates_suppressed;
    rep.mailbox_hwm = r.juggler.obs.metrics.GaugeValue("sim.mailbox_high_watermark", "");
    rep.mailbox_overflows =
        r.juggler.obs.metrics.CounterValue("sim.mailbox_overflow_drops", "");
    if (spec.check_shard_divergence) {
      ChaosOptions o1 = opt;
      o1.shards = 1;
      ChaosOptions o2 = opt;
      o2.shards = 2;
      rep.digest_shard1 = RunChaosEngineStack(o1, StackKind::kJuggler).digest;
      rep.digest_shard2 = RunChaosEngineStack(o2, StackKind::kJuggler).digest;
      rep.diverged = rep.digest_shard1 != rep.digest_shard2;
    }
  } catch (const std::exception& e) {
    rep.exception = e.what();
  }
  return rep;
}

Json CollectSpecObs(const ScenarioSpec& spec) {
  Json obs = Json::Object();
  ChaosOptions opt = spec.chaos;
  opt.obs.metrics = true;
  opt.obs.trace = true;
  try {
    const ChaosEngineResult r = RunChaosEngineStack(opt, StackKind::kJuggler);
    obs.Set("metrics", r.obs.MetricsJson());
    obs.Set("trace", r.obs.TraceJson(ChaosTraceNamer()));
  } catch (const std::exception& e) {
    obs.Set("error", Json::Str(e.what()));
  }
  return obs;
}

SpecOutcome ExecuteSpec(const ScenarioSpec& spec, const ExecOptions& options) {
  SpecOutcome out;
  out.child = RunChildWithWatchdog(
      [&spec](int report_fd) {
        const SpecRunReport rep = RunSpecInProcess(spec);
        WriteAll(report_fd, rep.ToJson().Dump());
      },
      options.timeout_ms);

  const ChildResult& c = out.child;
  if (!c.forked) {
    out.signature = MakeSignature(SignatureKind::kAbnormalExit, "fork failed: " + c.error);
    return out;
  }
  if (c.timed_out) {
    out.signature = MakeSignature(SignatureKind::kDeadlockTimeout,
                                  "watchdog killed child after " + std::to_string(c.wall_ms) +
                                      "ms: " + FirstInterestingLine(c.stderr_text));
    return out;
  }
  if (c.crashed()) {
    const SignatureKind kind = LooksLikeSanitizerReport(c.stderr_text)
                                   ? SignatureKind::kSanitizerAbort
                                   : SignatureKind::kCrashSignal;
    out.signature = MakeSignature(kind, "signal " + std::to_string(c.term_signal) + ": " +
                                            FirstInterestingLine(c.stderr_text));
    return out;
  }
  if (c.exited && c.exit_code != 0) {
    const SignatureKind kind = LooksLikeSanitizerReport(c.stderr_text)
                                   ? SignatureKind::kSanitizerAbort
                                   : SignatureKind::kAbnormalExit;
    out.signature = MakeSignature(kind, "exit " + std::to_string(c.exit_code) + ": " +
                                            FirstInterestingLine(c.stderr_text));
    return out;
  }
  Json report_json;
  std::string error;
  if (!Json::Parse(c.report, &report_json, &error) ||
      !SpecRunReport::FromJson(report_json, &out.report, &error)) {
    out.signature = MakeSignature(SignatureKind::kAbnormalExit, "bad report: " + error);
    return out;
  }
  if (!out.report.exception.empty()) {
    out.signature = MakeSignature(SignatureKind::kException, out.report.exception);
    return out;
  }
  if (out.report.diverged) {
    out.signature =
        MakeSignature(SignatureKind::kDigestDivergence, "shards=1 vs shards=2 digests differ");
    return out;
  }
  if (!out.report.ok || out.report.violations > 0) {
    const std::string detail = out.report.violation_messages.empty()
                                   ? (out.report.streams_match ? "run not ok" : "stream mismatch")
                                   : out.report.violation_messages.front();
    out.signature = MakeSignature(SignatureKind::kInvariantViolation, detail);
    return out;
  }
  out.signature = MakeSignature(SignatureKind::kClean, "");
  return out;
}

}  // namespace juggler
