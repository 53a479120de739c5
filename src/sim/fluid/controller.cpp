#include "sim/fluid/controller.h"

#include <algorithm>
#include <cmath>

namespace corelite::sim::fluid {

FluidController::FluidController(Simulator& sim, TimeWarp& warp, stats::FlowTracker& tracker,
                                 FluidConfig cfg, SimTime experiment_end)
    : sim_{sim}, warp_{warp}, tracker_{tracker}, cfg_{cfg}, end_{experiment_end} {
  stats_.enabled = cfg_.enabled;
}

void FluidController::add_flow(net::FlowId id, double weight, std::vector<std::uint32_t> links,
                               double min_rate) {
  Tracked t;
  t.id = id;
  t.weight = weight;
  flows_.push_back(t);
  AllocFlow a;
  a.weight = weight;
  a.links = std::move(links);
  a.min_rate = min_rate;
  alloc_flows_.push_back(std::move(a));
}

void FluidController::start() {
  last_tick_ = sim_.exp_now();
  last_events_ = sim_.events_processed();
  for (Tracked& f : flows_) {
    if (!tracker_.has(f.id)) continue;
    const auto& fs = tracker_.counters(f.id);
    f.last_delivered = fs.delivered;
    f.last_sent = fs.sent;
    f.last_dropped = fs.dropped;
  }
  reset_window(last_tick_);
  tick_handle_ = sim_.every(cfg_.check_period, [this] { tick(); });
}

void FluidController::reset_window(SimTime t) {
  win_start_ = t;
  mid_set_ = false;
  for (Tracked& f : flows_) {
    f.win_delivered = f.last_delivered;
    f.win_sent = f.last_sent;
    f.win_dropped = f.last_dropped;
    f.drift_sign = 0;
    f.oscillatory = false;
  }
}

void FluidController::slide_window() {
  // The old second half becomes the new first half; drift signs are
  // kept — sign persistence across slid windows is what separates a
  // ramp from an oscillation.
  win_start_ = win_mid_;
  mid_set_ = false;
  for (Tracked& f : flows_) {
    f.win_delivered = f.mid_delivered;
    f.win_sent = f.mid_sent;
    f.win_dropped = f.mid_dropped;
  }
}

bool FluidController::halves_agree(SimTime t) {
  if (!mid_set_) return false;
  const double s1 = (win_mid_ - win_start_).sec();
  const double s2 = (t - win_mid_).sec();
  if (s1 <= 0.0 || s2 <= 0.0) return false;
  const double z =
      std::sqrt(2.0 * std::log(std::max<double>(static_cast<double>(flows_.size()), 2.0)));
  bool ok = true;
  double agg_r1 = 0.0;
  double agg_r2 = 0.0;
  for (Tracked& f : flows_) {
    const double r1 = static_cast<double>(f.mid_delivered - f.win_delivered) / s1;
    const double r2 = static_cast<double>(f.last_delivered - f.mid_delivered) / s2;
    agg_r1 += r1;
    agg_r2 += r2;
    const double mean = (r1 * s1 + r2 * s2) / (s1 + s2);
    // Below the per-flow measurement floor the halves are a handful of
    // packets each; intermittent delivery there is quantization, not
    // drift.  The aggregate half-window check below still catches many
    // sub-floor flows drifting the same way at once.
    if (mean < cfg_.rate_floor_pps) continue;
    // A half-window mean averages s/dt tick samples, so its noise std
    // is sqrt(var * dt / s) with var the flow's own measured tick
    // variance; the difference of the two halves adds in quadrature.
    // Max-of-N scaled like the tick test, plus a counter-grid quantum.
    // Using measured variance — not an assumed noise model — keeps the
    // gate tight for near-deterministic flows (it must catch their slow
    // convergence ramps) and loose for probabilistic-drop noise.
    const double dt = cfg_.check_period.sec();
    const double sigma = std::sqrt(std::max(f.var_delivered, 0.0) * dt * (1.0 / s1 + 1.0 / s2));
    double tol = z * sigma + cfg_.quant_slack_pkts * (1.0 / s1 + 1.0 / s2);
    // Minor flows — below the fidelity cross-check's absolute
    // resolution scale — additionally tolerate their own control-loop
    // oscillation amplitude (see FluidConfig::drift_major_pps).
    if (mean < cfg_.drift_major_pps) {
      tol += cfg_.drift_minor_frac * std::max(mean, cfg_.rate_floor_pps);
    }
    if (std::abs(r2 - r1) <= tol) continue;
    // Halves disagree: ramp or slow oscillation?  A ramp repeats the
    // same drift sign across slid windows — hold off, the window mean
    // lags the trend.  An oscillation flips sign — its full-window mean
    // averages out correctly, so a flipped flow is tolerated.
    const int sign = r2 > r1 ? 1 : -1;
    const int prev = f.drift_sign;
    f.drift_sign = sign;
    if (prev == -sign) f.oscillatory = true;
    if (f.oscillatory) continue;
    ok = false;
  }
  // Aggregate half-window drift: the tick-scale aggregate band test
  // compares against a fast EWMA, which tracks a slow monotone ramp
  // instead of flagging it.  Comparing the window halves directly has
  // no such lag, and covers the sub-floor flows the per-flow test
  // skips.  Quantization noise across N independent counters adds in
  // quadrature — sqrt(N) — not linearly.
  const double agg_tol =
      cfg_.band * std::max(0.5 * (agg_r1 + agg_r2), cfg_.rate_floor_pps) +
      cfg_.quant_slack_pkts * std::sqrt(static_cast<double>(std::max<std::size_t>(flows_.size(), 1))) *
          (1.0 / s1 + 1.0 / s2);
  if (std::abs(agg_r2 - agg_r1) > agg_tol) ok = false;
  return ok;
}

void FluidController::tick() {
  const SimTime t = sim_.exp_now();
  const double dt = (t - last_tick_).sec();
  last_tick_ = t;
  if (dt <= 0.0) return;
  const double a = cfg_.ewma_alpha;

  // A workload boundary fired since the last check: the measurement in
  // progress straddles a workload change and is void.  The band test
  // alone cannot be trusted to catch this — a freshly started flow
  // still ramping below the quantization slack looks "in band" at
  // near-zero rate and would be extrapolated as silent.
  if (warp_.fired_count() != warp_fired_seen_) {
    warp_fired_seen_ = warp_.fired_count();
    emit_cert(FluidCertEvent::Kind::kBoundaryReset, t, (t - win_start_).sec());
    dwell_ = 0;
    out_band_ = 0;
    reanchor_ = false;
    reset_window(t);
  }

  const std::uint64_t ev = sim_.events_processed();
  const double ev_rate = static_cast<double>(ev - last_events_) / dt;
  last_events_ = ev;
  event_rate_ = event_rate_ < 0.0 ? ev_rate : a * ev_rate + (1.0 - a) * event_rate_;

  // Per-flow band test on the flows dense enough to measure, aggregate
  // band test over everything (sparse flows' quantization noise cancels
  // in the sum).  Band checks compare against the EWMA *before* this
  // tick's sample is folded in, so one outlier cannot drag the
  // reference toward itself.
  bool in_band = true;
  double total_inst = 0.0;
  double total_prev = 0.0;
  // Quantization slack: counter deltas measure rates on a 1/dt grid.
  // The per-flow test is an AND over every flow, so its slack must
  // absorb the expected *maximum* of N independent noise draws —
  // extreme-value scaling, sqrt(2 ln N) — or one unlucky flow per tick
  // keeps a large population permanently "unconverged".
  const double quant = cfg_.quant_slack_pkts / dt;
  const double zq =
      quant * std::sqrt(2.0 * std::log(std::max<double>(static_cast<double>(flows_.size()), 2.0)));
  for (Tracked& f : flows_) {
    const auto& fs = tracker_.counters(f.id);
    const double rd = static_cast<double>(fs.delivered - f.last_delivered) / dt;
    const double rs = static_cast<double>(fs.sent - f.last_sent) / dt;
    const double rr = static_cast<double>(fs.dropped - f.last_dropped) / dt;
    f.last_delivered = fs.delivered;
    f.last_sent = fs.sent;
    f.last_dropped = fs.dropped;
    total_inst += rd;
    if (f.ewma_delivered < 0.0) {
      f.ewma_delivered = rd;
      f.ewma_sent = rs;
      f.ewma_dropped = rr;
      in_band = false;
      continue;
    }
    total_prev += f.ewma_delivered;
    const double dev = rd - f.ewma_delivered;  // vs the pre-fold EWMA
    f.var_delivered =
        f.var_delivered < 0.0 ? dev * dev : a * dev * dev + (1.0 - a) * f.var_delivered;
    if ((f.ewma_delivered >= cfg_.rate_floor_pps || rd >= cfg_.rate_floor_pps) &&
        std::abs(rd - f.ewma_delivered) >
            cfg_.band * std::max(f.ewma_delivered, cfg_.rate_floor_pps) + zq) {
      in_band = false;
    }
    f.ewma_delivered = a * rd + (1.0 - a) * f.ewma_delivered;
    f.ewma_sent = a * rs + (1.0 - a) * f.ewma_sent;
    f.ewma_dropped = a * rr + (1.0 - a) * f.ewma_dropped;
  }
  if (std::abs(total_inst - total_prev) >
      cfg_.band * std::max(total_prev, cfg_.rate_floor_pps) +
          quant * std::sqrt(static_cast<double>(flows_.size()))) {
    in_band = false;
  }

  // An isolated out-of-band tick is part of the steady oscillation the
  // window mean is supposed to integrate; only a sustained excursion (a
  // real phase change) invalidates the window.  The dwell counter is
  // still strict — a jump needs consecutive in-band ticks.
  out_band_ = in_band ? 0 : out_band_ + 1;
  if (out_band_ >= 2) {
    emit_cert(FluidCertEvent::Kind::kWindowReset, t, (t - win_start_).sec());
    reanchor_ = false;
    reset_window(t);
  }
  // A capped jump re-materialized inside the same certified phase, so
  // the controller only needs to re-anchor its rates — half a window —
  // before extrapolating again; a fresh phase needs the full window.
  const double need_window =
      cfg_.measure_window.sec() * (reanchor_ ? 0.5 : 1.0);
  if (!mid_set_ && (t - win_start_).sec() >= 0.5 * need_window) {
    win_mid_ = t;
    mid_set_ = true;
    for (Tracked& f : flows_) {
      f.mid_delivered = f.last_delivered;
      f.mid_sent = f.last_sent;
      f.mid_dropped = f.last_dropped;
    }
  }
  dwell_ = in_band ? dwell_ + 1 : 0;
  const bool steady = dwell_ >= cfg_.dwell_checks;
  if (steady) stats_.steady_detected_sec += dt;
  if (!steady || cfg_.observe_only) return;
  const double window_sec = (t - win_start_).sec();
  if (window_sec < need_window) return;

  // Jump to just short of the next workload boundary (or experiment
  // end); the margin lets the packet engine re-absorb the transient.
  // A capped jump stops mid-phase instead — no boundary, no margin.
  const SimTime boundary = std::min(warp_.next_boundary(), end_);
  SimTime target = boundary - cfg_.margin;
  bool capped = false;
  if (cfg_.max_extrapolation_windows > 0.0) {
    const SimTime cap =
        t + TimeDelta::seconds(cfg_.max_extrapolation_windows * cfg_.measure_window.sec());
    if (cap < target) {
      target = cap;
      capped = true;
    }
  }
  stats_.cert_attempts += 1;
  emit_cert(FluidCertEvent::Kind::kAttempt, t, window_sec);
  if (!(target > t) || target - t < cfg_.min_skip) {
    stats_.cert_reject_min_skip += 1;
    emit_cert(FluidCertEvent::Kind::kRejectMinSkip, t, window_sec,
              target > t ? (target - t).sec() : 0.0);
    return;
  }
  if (!halves_agree(t)) {
    stats_.cert_reject_drift += 1;
    emit_cert(FluidCertEvent::Kind::kRejectDrift, t, window_sec);
    slide_window();  // re-measure from the window's second half
    return;
  }
  if (!solve_allocation(window_sec)) {
    stats_.cert_reject_agreement += 1;
    emit_cert(FluidCertEvent::Kind::kRejectAgreement, t, window_sec);
    return;
  }
  stats_.cert_dwell_at_accept_sum += static_cast<double>(dwell_);
  emit_cert(FluidCertEvent::Kind::kAccept, t, window_sec, (target - t).sec());
  if (capped) emit_cert(FluidCertEvent::Kind::kReanchor, t, window_sec, (target - t).sec());
  jump(target, capped);
}

// Fill window-mean rates, solve the weighted max-min allocation for the
// measured demands, and check the means agree with it.  The window
// means — not the analytic shares — are what a jump synthesizes from:
// they ARE the packet engine's steady behaviour (integrated over
// several oscillation periods), mechanism quirks included.  The
// analytic solution is the correctness oracle: converged-to-the-WRONG-
// fixed-point states (e.g. a flow starved by a bug) fail the agreement
// gate and keep running packet-level.
bool FluidController::solve_allocation(double window_sec) {
  double total_meas = 0.0;
  bool any_active = false;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Tracked& f = flows_[i];
    f.mean_delivered = static_cast<double>(f.last_delivered - f.win_delivered) / window_sec;
    f.mean_sent = static_cast<double>(f.last_sent - f.win_sent) / window_sec;
    f.mean_dropped = static_cast<double>(f.last_dropped - f.win_dropped) / window_sec;
    alloc_flows_[i].demand = f.mean_sent > 1e-9 ? f.mean_sent : 0.0;
    any_active = any_active || f.mean_sent > 1e-9;
    total_meas += f.mean_delivered;
  }
  alloc_ = water_fill(caps_, alloc_flows_);
  if (!any_active) return true;  // idle network: nothing to disagree about
  if (cfg_.agreement_band <= 0.0) return true;

  // The oracle checks three invariants rather than per-flow equality
  // with the ideal: core-stateless mechanisms structurally deviate from
  // exact max-min on multi-bottleneck paths (multi-hop flows lose to
  // compounded per-hop drops; the capacity they leave behind is
  // redistributed to their neighbours), and that deviation IS the
  // object of study — the fluid model must reproduce it, not reject it.
  //
  // (1) No starvation: each flow's measured rate stays above its ideal
  //     share shrunk by (1 - band)^hops — the compounded per-hop loss a
  //     healthy mechanism can legitimately show.
  double total_ideal = 0.0;
  link_load_.assign(caps_.size(), 0.0);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    total_ideal += alloc_[i];
    const double meas = flows_[i].mean_delivered;
    for (std::uint32_t l : alloc_flows_[i].links) {
      if (l < link_load_.size()) link_load_[l] += meas;
    }
    if (meas < cfg_.rate_floor_pps && alloc_[i] < cfg_.rate_floor_pps) continue;
    const double hops = static_cast<double>(std::max<std::size_t>(alloc_flows_[i].links.size(), 1));
    // One full measurement floor of slack: rates below the floor are
    // not per-flow measurable, so the bound must not bind there — a
    // multi-hop flow compounded down to ~1 pkt/s is indistinguishable
    // from its own quantization noise, not evidence of a broken model.
    const double lo =
        alloc_[i] * std::pow(1.0 - cfg_.agreement_band, hops) - cfg_.rate_floor_pps;
    if (meas < lo) return false;
  }
  // (2) Physical feasibility: measured per-link totals cannot exceed
  //     capacity.  Delivered counters physically can't, so a violation
  //     means the capacity vector or link indexing handed to the
  //     controller is wrong — refuse to extrapolate from a broken model.
  for (std::size_t l = 0; l < caps_.size(); ++l) {
    if (link_load_[l] > caps_[l] * (1.0 + 0.5 * cfg_.agreement_band) + cfg_.rate_floor_pps) {
      return false;
    }
  }
  // (3) Aggregate agreement: total delivered within the band of the
  //     total ideal allocation — the "right fixed point overall" check.
  return std::abs(total_meas - total_ideal) <=
         cfg_.agreement_band * std::max(total_ideal, cfg_.rate_floor_pps);
}

void FluidController::jump(SimTime target, bool capped) {
  const SimTime t0 = sim_.exp_now();
  const TimeDelta skip = target - t0;
  const double dsec = skip.sec();

  tracker_.sample_cumulative(t0);
  const auto whole = [](double rate, double dt, double& residue) -> std::uint64_t {
    const double want = std::max(0.0, rate) * dt + residue;
    const double n = std::floor(want);
    residue = want - n;
    return static_cast<std::uint64_t>(n);
  };
  // Fluid model of the skipped span: every flow keeps sending,
  // delivering and dropping at its measurement-window mean rates — the
  // packet engine's own steady behaviour, extrapolated.  With series on,
  // the span is synthesized chunk by chunk on the cumulative-sampling
  // grid so the staircase the periodic sampler would have recorded is
  // still there (step-interpolating readers would otherwise see the
  // whole span's service as one cliff at the jump's end).  Counters-only
  // runs take the span in a single O(flows) chunk.
  const bool series_on = tracker_.series_enabled();
  const double step = std::max(1e-9, cfg_.synth_sample_period.sec());
  double done = 0.0;
  while (done < dsec) {
    const double d = series_on ? std::min(step, dsec - done) : dsec - done;
    for (Tracked& f : flows_) {
      const std::uint64_t nd = whole(f.mean_delivered, d, f.res_delivered);
      const std::uint64_t ns = whole(f.mean_sent, d, f.res_sent);
      const std::uint64_t nr = whole(f.mean_dropped, d, f.res_dropped);
      if (nd != 0 || ns != 0 || nr != 0) {
        tracker_.add_synthesized(f.id, nd, ns, nr);
        f.last_delivered += nd;
        f.last_sent += ns;
        f.last_dropped += nr;
      }
      stats_.synth_delivered += nd;
      stats_.synth_sent += ns;
      stats_.synth_dropped += nr;
    }
    done += d;
    if (series_on && done < dsec) tracker_.sample_cumulative(t0 + TimeDelta::seconds(done));
  }
  // Bracket the skipped span in the allotted-rate series at the fluid
  // rate, so piecewise-constant window averages integrate the phase mean
  // instead of carrying whatever control-loop oscillation sample
  // happened to come last before the jump.  Every t0 first, then every
  // target: the flows share a rate clock, which takes times in order.
  for (const SimTime t : {t0, target}) {
    for (const Tracked& f : flows_) {
      if (f.mean_delivered > 0.0) tracker_.record_rate(f.id, t, f.mean_delivered);
    }
  }

  sim_.advance_exp_offset(skip);
  tracker_.sample_cumulative(sim_.exp_now());
  warp_.on_offset_advanced();
  last_tick_ = sim_.exp_now();  // the skipped span is not a measurement interval
  reset_window(last_tick_);     // synthesized counters are not measurements either
  reanchor_ = capped;

  stats_.jumps += 1;
  stats_.fast_forwarded_sec += dsec;
  stats_.events_elided_est +=
      static_cast<std::uint64_t>(std::max(0.0, event_rate_) * dsec);

  // The runner's outer loop recomputes its engine-time deadline
  // (experiment_end - offset) after every stop.
  sim_.stop();
}

void FluidController::emit_cert(FluidCertEvent::Kind kind, SimTime t, double window_sec,
                                double extra) {
  if (probe_ == nullptr) return;
  FluidCertEvent e;
  e.kind = kind;
  e.t_sec = t.sec();
  e.dwell = dwell_;
  e.window_sec = window_sec;
  e.extra = extra;
  probe_->on_cert_event(e);
}

}  // namespace corelite::sim::fluid
