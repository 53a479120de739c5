#include "runner/sweep.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "runner/thread_pool.h"

namespace corelite::runner {

std::string cell_key(const RunDescriptor& d) {
  std::string key = d.scenario + "/" + scenario::mechanism_name(d.mechanism);
  if (d.num_flows > 0) key += "/n" + std::to_string(d.num_flows);
  // The LP count changes the digest (per-LP RNG streams), so LP cells
  // aggregate separately; lp_threads does not and is omitted.
  if (d.lp > 1) key += "/lp" + std::to_string(d.lp);
  // Fluid runs trade bit-identity for wall clock; keep their digests in
  // a separate cell from packet-mode runs of the same scenario.
  if (d.fluid) key += "/fluid";
  if (d.fluid_observe) key += "/observe";
  return key;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t repeat) {
  // splitmix64: statistically independent streams even for adjacent
  // (base, repeat) pairs, unlike base + repeat.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (repeat + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<RunDescriptor> expand_grid(const SweepGrid& grid) {
  std::vector<RunDescriptor> runs;
  runs.reserve(grid.scenarios.size() * grid.mechanisms.size() * grid.repeats);
  for (const std::string& scen : grid.scenarios) {
    for (const scenario::Mechanism mech : grid.mechanisms) {
      for (std::size_t rep = 0; rep < grid.repeats; ++rep) {
        RunDescriptor d;
        d.scenario = scen;
        d.mechanism = mech;
        d.repeat = rep;
        d.seed = derive_seed(grid.base_seed, rep);
        d.duration_sec = grid.duration_sec;
        d.num_flows = grid.num_flows;
        d.weights = grid.weights;
        d.control_loss_rate = grid.control_loss_rate;
        d.lp = grid.lp;
        d.lp_threads = grid.lp_threads;
        d.fluid = grid.fluid;
        runs.push_back(std::move(d));
      }
    }
  }
  return runs;
}

std::optional<scenario::ScenarioSpec> build_spec(const RunDescriptor& d) {
  auto spec = scenario::scenario_by_name(d.scenario, d.mechanism);
  if (!spec.has_value()) return std::nullopt;
  if (d.num_flows > 0 && d.num_flows != spec->num_flows) {
    spec->num_flows = d.num_flows;
    if (spec->generated.has_value()) {
      // Generated scenarios regenerate their population at run time;
      // the override just resizes it (and drops per-flow series at
      // bench scale, matching the named-scenario default).
      spec->generated->flows.num_flows = d.num_flows;
      spec->generated->flows.record_series = d.num_flows <= 20000;
    } else {
      spec->weights.assign(d.num_flows, 1.0);
      // The scenario's activity windows and contracts are per-flow lists
      // sized for its default population; an overridden population runs
      // always-on.
      spec->activity.clear();
      spec->min_rates.clear();
    }
  }
  if (!d.weights.empty()) {
    if (spec->generated.has_value()) {
      // For generated populations an explicit weight list becomes the
      // repeating weight cycle (any length).
      spec->generated->flows.weight_cycle = d.weights;
    } else {
      if (d.weights.size() != spec->num_flows) return std::nullopt;
      spec->weights = d.weights;
    }
  }
  if (d.duration_sec > 0.0) spec->duration = sim::SimTime::seconds(d.duration_sec);
  if (d.control_loss_rate > 0.0) spec->control_loss_rate = d.control_loss_rate;
  if (d.lp > 0) spec->lp = d.lp;
  if (d.lp_threads > 0) spec->lp_threads = d.lp_threads;
  spec->fluid.enabled = d.fluid || d.fluid_observe;
  spec->fluid.observe_only = d.fluid_observe && !d.fluid;
  spec->seed = d.seed;
  return spec;
}

namespace {

// FNV-1a, fed 64 bits at a time; doubles enter by bit pattern so the
// digest witnesses exact equality, not approximate.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t result_digest(const scenario::ScenarioResult& r) {
  Digest d;
  d.mix(r.events_processed);
  d.mix(r.total_data_drops);
  d.mix(r.congested_link_drops);
  d.mix(r.feedback_messages);
  d.mix(r.markers_injected);
  d.mix(static_cast<std::uint64_t>(r.core_flow_state));
  for (const auto& [id, fs] : r.tracker.all()) {
    d.mix(static_cast<std::uint64_t>(id));
    d.mix(fs.sent);
    d.mix(fs.delivered);
    d.mix(fs.dropped);
    d.mix(fs.feedback_received);
    for (const auto p : fs.allotted_rate) {
      d.mix(p.t);
      d.mix(p.v);
    }
    for (const auto p : fs.cumulative_delivered) {
      d.mix(p.t);
      d.mix(p.v);
    }
  }
  return d.h;
}

std::uint64_t combined_digest(const std::vector<RunResult>& results) {
  Digest d;
  for (const auto& r : results) d.mix(r.digest);
  return d.h;
}

RunResult execute_run(const RunDescriptor& desc,
                      const scenario::ScenarioSpec::InstrumentFn& instrument,
                      const SpecHook& spec_hook) {
  RunResult res;
  res.desc = desc;
  auto spec = build_spec(desc);
  if (!spec.has_value()) return res;
  if (instrument) spec->instrument = instrument;
  if (spec_hook) spec_hook(*spec);

  const auto t0 = std::chrono::steady_clock::now();
  scenario::ScenarioResult r = scenario::run_paper_scenario(*spec);
  res.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  const double t_end = spec->duration.sec();
  const double w0 = t_end / 2.0;
  auto score = scenario::steady_state_score(*spec, r, w0, t_end, sim::SimTime::seconds(w0));
  res.avg_rate_pps = std::move(score.avg_rate);
  res.jain = score.jain;
  res.events = r.events_processed;
  res.total_drops = r.total_data_drops;
  res.delivered = r.tracker.total_delivered();
  res.feedback = r.feedback_messages;
  res.core_flow_state = r.core_flow_state;
  res.fluid_ff_sec = r.fluid_stats.fast_forwarded_sec;
  res.fluid_steady_sec = r.fluid_stats.steady_detected_sec;
  res.fluid_jumps = r.fluid_stats.jumps;
  res.fluid_events_elided = r.fluid_stats.events_elided_est;
  res.cert_attempts = r.fluid_stats.cert_attempts;
  res.cert_rejects_min_skip = r.fluid_stats.cert_reject_min_skip;
  res.cert_rejects_drift = r.fluid_stats.cert_reject_drift;
  res.cert_rejects_agreement = r.fluid_stats.cert_reject_agreement;
  res.cert_mean_dwell_at_accept =
      r.fluid_stats.jumps > 0
          ? r.fluid_stats.cert_dwell_at_accept_sum / static_cast<double>(r.fluid_stats.jumps)
          : 0.0;
  res.audit = std::move(r.audit_report);
  res.digest = result_digest(r);
  res.ok = true;
  return res;
}

void record_metrics(stats::SweepAggregator& agg, const RunResult& r) {
  const std::string cell = cell_key(r.desc);
  const auto idx = static_cast<std::uint64_t>(r.index);
  agg.add(cell, idx, "jain", r.jain);
  agg.add(cell, idx, "events", static_cast<double>(r.events));
  agg.add(cell, idx, "total_drops", static_cast<double>(r.total_drops));
  agg.add(cell, idx, "delivered", static_cast<double>(r.delivered));
  agg.add(cell, idx, "feedback", static_cast<double>(r.feedback));
  agg.add(cell, idx, "core_flow_state", static_cast<double>(r.core_flow_state));
  if (r.desc.fluid) {
    agg.add(cell, idx, "fluid_ff_sec", r.fluid_ff_sec);
    agg.add(cell, idx, "fluid_jumps", static_cast<double>(r.fluid_jumps));
  }
}

double estimate_eta_sec(const EtaSnapshot& snap) {
  const std::size_t done = snap.done_fluid + snap.done_packet;
  if (done == 0) return -1.0;
  const double pooled =
      (snap.wall_ms_fluid + snap.wall_ms_packet) / static_cast<double>(done);
  const double avg_fluid =
      snap.done_fluid > 0 ? snap.wall_ms_fluid / static_cast<double>(snap.done_fluid) : pooled;
  const double avg_packet =
      snap.done_packet > 0 ? snap.wall_ms_packet / static_cast<double>(snap.done_packet) : pooled;
  double remaining_ms = avg_fluid * static_cast<double>(snap.pending_fluid) +
                        avg_packet * static_cast<double>(snap.pending_packet);
  // Busy runs get credit for the wall they have already burned; a run
  // past its kind's average contributes zero, not a negative.
  for (const EtaSnapshot::Busy& b : snap.busy) {
    remaining_ms += std::max(0.0, (b.fluid ? avg_fluid : avg_packet) - b.elapsed_ms);
  }
  return remaining_ms / (1000.0 * static_cast<double>(std::max<std::size_t>(1, snap.workers)));
}

namespace {

/// Shared sweep-progress board: workers post what they are doing,
/// the heartbeat thread renders it.  Pure observation — it never feeds
/// back into scheduling or results, so digests stay --jobs-invariant.
struct ProgressBoard {
  struct Worker {
    bool busy = false;
    bool fluid = false;  ///< the running descriptor's kind (see EtaSnapshot)
    std::string label;
    std::chrono::steady_clock::time_point start{};
  };
  std::mutex mu;
  std::vector<Worker> workers;
  std::size_t done = 0;
  double done_wall_ms_sum = 0.0;
  // Per-kind accounting for the ETA model: fluid fast-forward runs are
  // far cheaper than packet runs, so their wall times never pool.
  std::size_t done_fluid = 0;
  std::size_t done_packet = 0;
  double wall_ms_fluid = 0.0;
  double wall_ms_packet = 0.0;
  std::size_t started_fluid = 0;
  std::size_t started_packet = 0;
  std::size_t total_fluid = 0;
  std::size_t total_packet = 0;
};

void print_heartbeat(std::ostream& os, ProgressBoard& board, std::size_t total,
                     std::chrono::steady_clock::time_point now) {
  const std::lock_guard<std::mutex> lock{board.mu};
  const double avg_ms = board.done > 0 ? board.done_wall_ms_sum / static_cast<double>(board.done)
                                       : 0.0;
  std::size_t busy = 0;
  for (const auto& w : board.workers) busy += w.busy ? 1 : 0;
  os << "[sweep] " << board.done << "/" << total << " done";
  if (board.done > 0 && board.done < total) {
    EtaSnapshot snap;
    snap.workers = board.workers.size();
    snap.done_fluid = board.done_fluid;
    snap.done_packet = board.done_packet;
    snap.wall_ms_fluid = board.wall_ms_fluid;
    snap.wall_ms_packet = board.wall_ms_packet;
    snap.pending_fluid = board.total_fluid - board.started_fluid;
    snap.pending_packet = board.total_packet - board.started_packet;
    for (const auto& w : board.workers) {
      if (!w.busy) continue;
      snap.busy.push_back(
          {w.fluid, std::chrono::duration<double, std::milli>(now - w.start).count()});
    }
    const double eta_s = estimate_eta_sec(snap);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", eta_s);
    os << ", avg " << static_cast<std::uint64_t>(avg_ms) << " ms/run";
    if (eta_s >= 0.0) os << ", eta ~" << buf << " s";
  }
  if (busy > 0) {
    os << " |";
    for (std::size_t i = 0; i < board.workers.size(); ++i) {
      const auto& w = board.workers[i];
      if (!w.busy) continue;
      const double el_ms = std::chrono::duration<double, std::milli>(now - w.start).count();
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", el_ms / 1000.0);
      os << " w" << i << ": " << w.label << " (" << buf << " s";
      // A run that has been busy for >3x the mean completed-run time is
      // the sweep's likely critical path — flag it for the operator.
      if (avg_ms > 0.0 && el_ms > 3.0 * avg_ms) os << ", straggler";
      os << ")";
    }
  }
  os << "\n" << std::flush;
}

}  // namespace

std::vector<RunResult> SweepRunner::run(const std::vector<RunDescriptor>& runs) {
  std::vector<RunResult> results(runs.size());
  if (runs.empty()) return results;

  const auto epoch = std::chrono::steady_clock::now();
  const std::size_t pool_size = std::min(std::max<std::size_t>(1, jobs_), runs.size());

  ProgressBoard board;
  board.workers.resize(pool_size);
  for (const RunDescriptor& d : runs) {
    (d.fluid ? board.total_fluid : board.total_packet) += 1;
  }

  std::mutex done_mu;
  std::size_t done = 0;
  {
    ThreadPool pool{pool_size};

    // Heartbeat thread: wakes every interval, renders the board, exits
    // promptly when poked at teardown.
    std::thread heartbeat;
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    if (heartbeat_os_ != nullptr && heartbeat_interval_sec_ > 0.0) {
      heartbeat = std::thread([this, &board, &hb_mu, &hb_cv, &hb_stop, total = runs.size()] {
        const auto interval = std::chrono::duration<double>(heartbeat_interval_sec_);
        std::unique_lock<std::mutex> lock{hb_mu};
        while (!hb_cv.wait_for(lock, interval, [&hb_stop] { return hb_stop; })) {
          print_heartbeat(*heartbeat_os_, board, total, std::chrono::steady_clock::now());
        }
      });
    }

    for (std::size_t i = 0; i < runs.size(); ++i) {
      pool.submit([this, &runs, &results, &done_mu, &done, &board, epoch, i,
                   total = runs.size()] {
        const std::size_t worker = ThreadPool::current_worker_index();
        const auto start = std::chrono::steady_clock::now();
        if (worker < board.workers.size()) {
          const std::lock_guard<std::mutex> lock{board.mu};
          auto& w = board.workers[worker];
          w.busy = true;
          w.fluid = runs[i].fluid;
          w.label = cell_key(runs[i]) + " r" + std::to_string(runs[i].repeat);
          w.start = start;
          (runs[i].fluid ? board.started_fluid : board.started_packet) += 1;
        }

        RunResult r =
            execute_run(runs[i], instrument_ && i == instrument_index_ ? instrument_ : nullptr,
                        spec_hook_ && i == spec_hook_index_ ? spec_hook_ : nullptr);
        r.index = i;
        r.worker = worker == ThreadPool::kNotAWorker ? 0 : worker;
        r.wall_start_ms = std::chrono::duration<double, std::milli>(start - epoch).count();

        if (worker < board.workers.size()) {
          const std::lock_guard<std::mutex> lock{board.mu};
          board.workers[worker].busy = false;
          ++board.done;
          board.done_wall_ms_sum += r.wall_ms;
          (runs[i].fluid ? board.done_fluid : board.done_packet) += 1;
          (runs[i].fluid ? board.wall_ms_fluid : board.wall_ms_packet) += r.wall_ms;
        }
        const std::lock_guard<std::mutex> lock{done_mu};
        ++done;
        results[i] = std::move(r);
        if (progress_) progress_(results[i], done, total);
      });
    }
    pool.wait_idle();

    if (heartbeat.joinable()) {
      {
        const std::lock_guard<std::mutex> lock{hb_mu};
        hb_stop = true;
      }
      hb_cv.notify_all();
      heartbeat.join();
      // One final line so short sweeps always show a terminal state.
      print_heartbeat(*heartbeat_os_, board, runs.size(), std::chrono::steady_clock::now());
    }
  }
  return results;
}

}  // namespace corelite::runner
