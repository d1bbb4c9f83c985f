#include "src/forensics/shrinker.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace juggler {
namespace {

// Floors ShrinkWorkload halves the transfer and the time budget toward.
constexpr uint64_t kMinTransferBytes = 200'000;
constexpr TimeNs kMinTimeLimit = Ms(100);

class Shrinker {
 public:
  Shrinker(const FailureSignature& target, const ShrinkOptions& options)
      : target_(target), options_(options) {}

  ShrinkResult Run(ScenarioSpec spec) {
    spec.Materialize();
    ShrinkResult result;
    result.spec = std::move(spec);
    result.signature = target_;
    bool progressed = true;
    while (progressed && !Exhausted()) {
      progressed = false;
      progressed |= DropFaultWindows(&result.spec);
      progressed |= DropFlapWindows(&result.spec);
      progressed |= DropOverloadWindows(&result.spec);
      progressed |= HalveWindowSpans(&result.spec);
      progressed |= HalveMagnitudes(&result.spec);
      progressed |= WeakenOverload(&result.spec);
      progressed |= SimplifyRxDriver(&result.spec);
      progressed |= ShrinkWorkload(&result.spec);
    }
    result.runs = runs_;
    result.accepted = accepted_;
    return result;
  }

 private:
  bool Exhausted() const { return runs_ >= options_.max_runs; }

  // Executes the candidate; true iff it still fails with the target
  // signature (an accept).
  bool StillFails(const ScenarioSpec& candidate) {
    ++runs_;
    ExecOptions exec;
    exec.timeout_ms = options_.timeout_ms;
    const SpecOutcome outcome = ExecuteSpec(candidate, exec);
    if (outcome.signature.fingerprint != target_.fingerprint) {
      return false;
    }
    ++accepted_;
    return true;
  }

  // Drop whole fault windows, one at a time, restarting after each accept
  // (indices shift). The loop is quadratic in windows but windows are few.
  bool DropFaultWindows(ScenarioSpec* spec) {
    bool any = false;
    bool again = true;
    while (again && !Exhausted()) {
      again = false;
      const auto& windows = spec->chaos.fault_override.windows();
      for (size_t skip = 0; skip < windows.size(); ++skip) {
        ScenarioSpec candidate = *spec;
        FaultTimeline pruned;
        for (size_t i = 0; i < windows.size(); ++i) {
          if (i != skip) {
            pruned.Add(windows[i].start, windows[i].end, windows[i].profile);
          }
        }
        candidate.chaos.fault_override = std::move(pruned);
        if (StillFails(candidate)) {
          *spec = std::move(candidate);
          any = again = true;
          break;
        }
        if (Exhausted()) {
          break;
        }
      }
    }
    return any;
  }

  bool DropFlapWindows(ScenarioSpec* spec) {
    bool any = false;
    bool again = true;
    while (again && !Exhausted()) {
      again = false;
      for (size_t skip = 0; skip < spec->chaos.flap_override.size(); ++skip) {
        ScenarioSpec candidate = *spec;
        std::vector<FlapWindow>& flaps = candidate.chaos.flap_override;
        flaps.erase(flaps.begin() + static_cast<ptrdiff_t>(skip));
        if (StillFails(candidate)) {
          *spec = std::move(candidate);
          any = again = true;
          break;
        }
        if (Exhausted()) {
          break;
        }
      }
    }
    return any;
  }

  // Halve each surviving window's duration (fault windows from the end,
  // flap windows from up_at). One attempt per window per round.
  bool HalveWindowSpans(ScenarioSpec* spec) {
    bool any = false;
    for (size_t i = 0; i < spec->chaos.fault_override.windows().size() && !Exhausted(); ++i) {
      const auto& w = spec->chaos.fault_override.windows()[i];
      const TimeNs span = w.end - w.start;
      if (span <= Ms(1)) {
        continue;
      }
      ScenarioSpec candidate = *spec;
      FaultTimeline edited;
      for (size_t k = 0; k < spec->chaos.fault_override.windows().size(); ++k) {
        auto win = spec->chaos.fault_override.windows()[k];
        if (k == i) {
          win.end = win.start + span / 2;
        }
        edited.Add(win.start, win.end, win.profile);
      }
      candidate.chaos.fault_override = std::move(edited);
      if (StillFails(candidate)) {
        *spec = std::move(candidate);
        any = true;
      }
    }
    for (size_t i = 0; i < spec->chaos.flap_override.size() && !Exhausted(); ++i) {
      const FlapWindow& w = spec->chaos.flap_override[i];
      const TimeNs span = w.up_at - w.down_at;
      if (span <= Ms(1)) {
        continue;
      }
      ScenarioSpec candidate = *spec;
      FlapWindow& edited = candidate.chaos.flap_override[i];
      edited.up_at = edited.down_at + span / 2;
      if (StillFails(candidate)) {
        *spec = std::move(candidate);
        any = true;
      }
    }
    return any;
  }

  bool DropOverloadWindows(ScenarioSpec* spec) {
    bool any = false;
    bool again = true;
    while (again && !Exhausted()) {
      again = false;
      for (size_t skip = 0; skip < spec->chaos.overload.windows.size(); ++skip) {
        ScenarioSpec candidate = *spec;
        candidate.chaos.overload.windows.erase(candidate.chaos.overload.windows.begin() +
                                         static_cast<ptrdiff_t>(skip));
        if (StillFails(candidate)) {
          *spec = std::move(candidate);
          any = again = true;
          break;
        }
        if (Exhausted()) {
          break;
        }
      }
    }
    return any;
  }

  // Per overload window: halve the span, then the injection intensity
  // (flows, packets per flow), then relax a brown-out's severity toward
  // 100%. Finally try relaxing the global caps — a repro that still fails
  // with a deeper pool has nothing to do with the cap value.
  bool WeakenOverload(ScenarioSpec* spec) {
    bool any = false;
    auto try_edit = [&](auto edit) {
      if (Exhausted()) {
        return;
      }
      ScenarioSpec candidate = *spec;
      edit(&candidate);
      if (StillFails(candidate)) {
        *spec = std::move(candidate);
        any = true;
      }
    };
    for (size_t i = 0; i < spec->chaos.overload.windows.size(); ++i) {
      const OverloadWindow& w = spec->chaos.overload.windows[i];
      if (w.end - w.start > Ms(1)) {
        try_edit([i](ScenarioSpec* s) {
          OverloadWindow& e = s->chaos.overload.windows[i];
          e.end = e.start + (e.end - e.start) / 2;
        });
      }
      if (spec->chaos.overload.windows[i].flows > 1) {
        try_edit([i](ScenarioSpec* s) { s->chaos.overload.windows[i].flows /= 2; });
      }
      if (spec->chaos.overload.windows[i].packets_per_flow > 1) {
        try_edit([i](ScenarioSpec* s) { s->chaos.overload.windows[i].packets_per_flow /= 2; });
      }
      if (spec->chaos.overload.windows[i].kind == OverloadKind::kBrownout &&
          spec->chaos.overload.windows[i].cap_pct < 100) {
        try_edit([i](ScenarioSpec* s) {
          OverloadWindow& e = s->chaos.overload.windows[i];
          e.cap_pct = std::min<uint32_t>(100, e.cap_pct * 2);
        });
      }
    }
    if (!spec->chaos.overload.windows.empty() && spec->chaos.overload.pool_capacity != 0) {
      try_edit([](ScenarioSpec* s) { s->chaos.overload.pool_capacity *= 2; });
    }
    return any;
  }

  // Try the simpler receive architecture: a repro that still fails on the
  // classic RSS+NAPI driver has nothing to do with the COREC axis (and drops
  // the plant flag with it). A COREC-only failure rejects the candidate, so
  // the minimal repro keeps rx_driver=corec — exactly the evidence wanted.
  bool SimplifyRxDriver(ScenarioSpec* spec) {
    if (spec->chaos.rx_driver == RxDriverKind::kRss || Exhausted()) {
      return false;
    }
    ScenarioSpec candidate = *spec;
    candidate.chaos.rx_driver = RxDriverKind::kRss;
    candidate.chaos.plant_corec_wedge = false;
    if (StillFails(candidate)) {
      *spec = std::move(candidate);
      return true;
    }
    return false;
  }

  // Halve fault probabilities and delay magnitudes per window.
  bool HalveMagnitudes(ScenarioSpec* spec) {
    bool any = false;
    for (size_t i = 0; i < spec->chaos.fault_override.windows().size() && !Exhausted(); ++i) {
      const FaultProfile& p = spec->chaos.fault_override.windows()[i].profile;
      FaultProfile halved = p;
      halved.drop_prob = p.drop_prob / 2;
      halved.burst_prob = p.burst_prob / 2;
      halved.dup_prob = p.dup_prob / 2;
      halved.corrupt_prob = p.corrupt_prob / 2;
      halved.truncate_prob = p.truncate_prob / 2;
      halved.delay_prob = p.delay_prob / 2;
      if (halved.delay_max > halved.delay_min) {
        halved.delay_max = halved.delay_min + (halved.delay_max - halved.delay_min) / 2;
      }
      if (!p.any()) {
        continue;
      }
      ScenarioSpec candidate = *spec;
      FaultTimeline edited;
      for (size_t k = 0; k < spec->chaos.fault_override.windows().size(); ++k) {
        const auto& win = spec->chaos.fault_override.windows()[k];
        edited.Add(win.start, win.end, k == i ? halved : win.profile);
      }
      candidate.chaos.fault_override = std::move(edited);
      if (StillFails(candidate)) {
        *spec = std::move(candidate);
        any = true;
      }
    }
    return any;
  }

  // Halve the transfer and the time budget toward their floors.
  bool ShrinkWorkload(ScenarioSpec* spec) {
    bool any = false;
    if (spec->chaos.transfer_bytes / 2 >= kMinTransferBytes && !Exhausted()) {
      ScenarioSpec candidate = *spec;
      candidate.chaos.transfer_bytes /= 2;
      if (StillFails(candidate)) {
        *spec = std::move(candidate);
        any = true;
      }
    }
    if (spec->chaos.time_limit / 2 >= kMinTimeLimit && !Exhausted()) {
      ScenarioSpec candidate = *spec;
      candidate.chaos.time_limit /= 2;
      if (StillFails(candidate)) {
        *spec = std::move(candidate);
        any = true;
      }
    }
    any |= ShrinkAppWorkload(spec);
    return any;
  }

  // Halve the app workload toward one session issuing one request, and
  // shrink the frame sizes — a minimal app-level repro is usually a single
  // request whose retry misbehaves.
  bool ShrinkAppWorkload(ScenarioSpec* spec) {
    if (!spec->chaos.app.enabled()) {
      return false;
    }
    bool any = false;
    auto try_edit = [&](auto edit) {
      if (Exhausted()) {
        return;
      }
      ScenarioSpec candidate = *spec;
      edit(&candidate.chaos.app);
      if (StillFails(candidate)) {
        *spec = std::move(candidate);
        any = true;
      }
    };
    if (spec->chaos.app.sessions > 1) {
      try_edit([](AppWorkloadOptions* a) { a->sessions = a->sessions / 2; });
    }
    if (spec->chaos.app.requests_per_session > 1) {
      try_edit([](AppWorkloadOptions* a) {
        a->requests_per_session = a->requests_per_session / 2;
      });
    }
    if (spec->chaos.app.response_bytes > 1'024) {
      try_edit([](AppWorkloadOptions* a) { a->response_bytes = a->response_bytes / 2; });
    }
    if (spec->chaos.app.chunk_bytes > 8'192) {
      try_edit([](AppWorkloadOptions* a) {
        a->chunk_bytes = a->chunk_bytes / 2;
        // Keep the chunk count, not the byte count: fewer bytes per chunk,
        // same number of retryable units.
        a->transfer_bytes_per_session = a->transfer_bytes_per_session / 2;
      });
    }
    if (spec->chaos.app.transfer_bytes_per_session > spec->chaos.app.chunk_bytes) {
      try_edit([](AppWorkloadOptions* a) {
        a->transfer_bytes_per_session =
            std::max(a->chunk_bytes, a->transfer_bytes_per_session / 2);
      });
    }
    // Retry-policy knobs: a minimal repro should not keep the full policy
    // that found the bug. Kill the jitter first (it is pure noise in a
    // repro), then walk attempts / backoff / deadline toward their floors.
    if (spec->chaos.app.retry.jitter_pct > 0) {
      try_edit([](AppWorkloadOptions* a) { a->retry.jitter_pct = 0; });
    }
    if (spec->chaos.app.retry.max_attempts > 1) {
      try_edit([](AppWorkloadOptions* a) {
        a->retry.max_attempts = std::max<uint32_t>(1, a->retry.max_attempts / 2);
      });
    }
    if (spec->chaos.app.retry.backoff_base > 0) {
      try_edit([](AppWorkloadOptions* a) {
        a->retry.backoff_base /= 2;
        a->retry.backoff_max = std::max(a->retry.backoff_base, a->retry.backoff_max / 2);
      });
    }
    if (spec->chaos.app.retry.deadline / 2 >= spec->chaos.app.retry.attempt_timeout) {
      try_edit([](AppWorkloadOptions* a) { a->retry.deadline /= 2; });
    }
    if (spec->chaos.app.retry.attempt_timeout > Ms(2)) {
      try_edit([](AppWorkloadOptions* a) {
        a->retry.attempt_timeout = std::max<TimeNs>(Ms(2), a->retry.attempt_timeout / 2);
        a->retry.deadline = std::max(a->retry.deadline, a->retry.attempt_timeout);
      });
    }
    return any;
  }

  const FailureSignature target_;
  const ShrinkOptions options_;
  int runs_ = 0;
  int accepted_ = 0;
};

}  // namespace

ShrinkResult ShrinkSpec(const ScenarioSpec& failing, const FailureSignature& target,
                        const ShrinkOptions& options) {
  return Shrinker(target, options).Run(failing);
}

}  // namespace juggler
