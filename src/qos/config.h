// Tunables for the Corelite mechanisms.
//
// Defaults reproduce the paper's simulation setup (§4): 1 KB packets,
// K1 = 1, alpha = 1, 40-packet queues, congestion threshold 8 packets,
// 100 ms epochs.
#pragma once

#include <cstddef>

#include "sim/units.h"

namespace corelite::qos {

/// Which weighted-fair marker selection mechanism core routers run.
enum class SelectorKind {
  /// §3.2: truly flow-stateless selection via running averages r_av / w_av
  /// and a deficit counter.  The paper's preferred mechanism (default).
  Stateless,
  /// §2.2: circular marker cache sampled uniformly upon congestion.
  MarkerCache,
};

/// Which congestion-estimation module core routers run (§3.1 notes the
/// module is replaceable; see congestion_estimator.h).
enum class DetectorKind {
  EpochAverage,   ///< paper default: time-weighted q_avg per epoch
  BusyIdleCycle,  ///< DECbit-style cycle averaging (Jain & Ramakrishnan)
  Ewma,           ///< RED-style exponentially weighted moving average
};

/// Closed-loop adaptation policy (see rate_controller.h).
enum class AdaptKind {
  Limd,  ///< the paper's scheme: +alpha / -beta*m (default)
  Aimd,  ///< classic AIMD: +alpha / *= (1-md_factor)^m
  Mimd,  ///< negative control: *= mi_factor / *= (1-md_factor)^m
};

/// How the edge paces a flow's packets onto the wire at rate b_g.
/// The paper's experiments use constant-bit-rate shaping; the other
/// modes exercise the §3.1 claim that the F_n computation "works
/// reasonably well even if the Poisson traffic assumptions do not hold"
/// (see `bench/ablations traffic`).
enum class PacingMode {
  Paced,    ///< constant inter-packet gap 1/b_g (paper default)
  Poisson,  ///< exponential gaps with mean 1/b_g
  OnOff,    ///< periodic bursts at peak rate, idle between (bursty)
};

/// Source rate adaptation (paper §2.2 step 3 and §4 agent description).
struct RateAdaptConfig {
  AdaptKind kind = AdaptKind::Limd;
  /// Additive increase per epoch when no feedback arrived (pkt/s).
  double alpha_pps = 1.0;
  /// Rate decrement per received marker (pkt/s).  The core's F_n formula
  /// counts markers assuming each throttles the aggregate by beta.
  double beta_pps = 1.0;
  /// Rate a flow starts (and restarts) at, in slow start (pkt/s).
  double initial_rate_pps = 1.0;
  /// Floor below which adaptation never throttles a flow (pkt/s).
  double min_rate_pps = 0.5;
  /// Slow-start exit threshold (pkt/s): crossing it halves the rate and
  /// switches to linear increase (paper §4: 32 pkt/s).
  double ss_thresh_pps = 32.0;
  /// Slow start doubles the rate once per this interval (paper: 1 s).
  sim::TimeDelta ss_double_interval = sim::TimeDelta::seconds(1);

  /// AIMD/MIMD: per-marker multiplicative decrease factor.
  double md_factor = 0.03;
  /// MIMD: per-epoch multiplicative increase factor when unmarked.
  double mi_factor = 1.02;
};

struct CoreliteConfig {
  /// Edge adaptation epoch (feedback accumulation window).
  sim::TimeDelta edge_epoch = sim::TimeDelta::millis(100);
  /// Core congestion-detection epoch.
  sim::TimeDelta core_epoch = sim::TimeDelta::millis(100);

  /// Marker spacing constant: a marker is injected after every
  /// N_w = K1 * w data packets of a flow.
  double k1 = 1.0;

  /// Congestion threshold on the average data-queue length (packets).
  double q_thresh_pkts = 8.0;
  /// Self-correcting cubic gain `k` in the F_n formula (§3.1).  Zero
  /// disables the correction term (ablation: risks queue blow-up).
  double k_cubic = 0.01;
  /// Evaluate the F_n formula with mu "in packets per congestion epoch"
  /// — the paper's literal wording — instead of packets per second (the
  /// dimensionally consistent reading; see congestion_estimator.h).
  /// Under the literal reading the M/M/1 term is an order of magnitude
  /// too weak, which is exactly the regime where the cubic term is
  /// load-bearing; `bench/ablations kcubic kcubic_literal` exercises both.
  bool legacy_per_epoch_mu = false;

  /// Congestion-estimation module (paper default: per-epoch averaging).
  DetectorKind detector = DetectorKind::EpochAverage;
  /// Per-sample EWMA gain for DetectorKind::Ewma.
  double detector_ewma_gain = 0.05;

  SelectorKind selector = SelectorKind::Stateless;
  /// Capacity of the circular marker cache (MarkerCache selector only).
  std::size_t marker_cache_size = 256;

  /// Per-epoch EWMA gain for the running average r_av of marker labels
  /// (§3.2).  r_av averages the *epoch means* of labels so its window is
  /// independent of marker load; 0.1 gives roughly a 1 s window at
  /// 100 ms epochs.  See `bench/ablations rav` for the sensitivity sweep.
  double rav_gain = 0.1;
  /// EWMA gain for the running average w_av of markers per epoch (§3.2).
  double wav_gain = 0.25;
  /// Markers labelled >= eligibility_factor * r_av may be echoed.  The
  /// paper's strict reading is 1.0, but at a converged equilibrium every
  /// flow sits exactly at the average — a strict threshold then filters
  /// out ~half the feedback precisely when congestion needs it, and the
  /// queue escapes to tail drops.  A 10% band keeps at-average flows
  /// throttleable while still protecting genuinely below-share flows.
  double eligibility_factor = 0.9;

  /// Fixed data packet size (paper: 1 KB).
  sim::DataSize packet_size = sim::DataSize::kilobytes(1);

  /// Packet pacing discipline at the edge shaper.
  PacingMode pacing = PacingMode::Paced;
  /// OnOff pacing: burst / idle period lengths.  The peak rate during a
  /// burst is scaled so the average rate stays b_g.
  sim::TimeDelta on_off_burst = sim::TimeDelta::millis(200);
  sim::TimeDelta on_off_idle = sim::TimeDelta::millis(200);

  /// Transit shaping burst tolerance (token-bucket depth, packets):
  /// queued bursts up to this size drain back-to-back at line rate
  /// while the long-run rate stays b_g.  1 = strict per-packet pacing.
  double edge_burst_tokens = 8.0;

  /// Per-flow shaping queue capacity (packets) for transit flows —
  /// externally generated traffic (e.g. TCP hosts) that the edge shapes
  /// to b_g.  Overflow drops happen HERE, at the edge, never in the
  /// core ("drop packets from ill behaved flows at the edges of the
  /// network", paper §6).
  std::size_t edge_queue_capacity = 32;

  RateAdaptConfig adapt{};
};

}  // namespace corelite::qos
