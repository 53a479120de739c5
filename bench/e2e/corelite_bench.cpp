// corelite_bench: one fresh-process repetition of an end-to-end
// benchmark workload.  bench/e2e/run.py starts this binary once per rep
// and reads the single JSON object it prints on stdout.
//
// Every layer is measured from outside the library: this program times
// its own calls into public functions (SweepRunner::run,
// run_paper_scenario, build_spec, result_digest, make_parking_lot,
// generate_flows, water_fill, ...), reads public result fields and
// sim::aggregated_hotpath_counters(), and attaches only the passive
// hooks a ScenarioSpec offers (instrument, lp_probe, fluid_probe).
// Nothing inside src/ knows it is being benchmarked.
//
//   corelite_bench --workload NAME --seed S [--trace] [--smoke] [--reference]
//
// --trace adds spans around every call above plus the probe- and
// observer-derived layer metrics; --reference runs the packet-mode
// reference of the fluid workload's first run, whose per-flow
// throughput the fluid run's fidelity is scored against.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "runner/sweep.h"
#include "scenario/flow_gen.h"
#include "scenario/paper_topology.h"
#include "scenario/scenario.h"
#include "scenario/topology_gen.h"
#include "sim/fluid/allocator.h"
#include "sim/fluid/probe.h"
#include "sim/hotpath.h"
#include "sim/parallel/lp_probe.h"
#include "stats/fairness.h"

namespace rn = corelite::runner;
namespace sc = corelite::scenario;
namespace net = corelite::net;
namespace sim = corelite::sim;
namespace fl = corelite::sim::fluid;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double us_of(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
Clock::time_point plus_ms(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}
double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  bool reference = false;
};

// ---------------------------------------------------------------------------
// Spans: kept in memory and printed with the result.  Opened and closed
// on the main thread only; spans of pool-worker runs are placed after
// the pass from RunResult's public wall fields.

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int run = -1;
  std::size_t tid = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_{enabled} {}

  /// Record a finished span; returns its id (-1 when tracing is off).
  int add(std::string name, Clock::time_point start, Clock::time_point end, int parent,
          int run = -1, std::size_t tid = 0) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), us_of(start), us_of(end), parent, run, tid});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Record a finished main-thread span under the innermost open one.
  int add_here(std::string name, Clock::time_point start, Clock::time_point end, int run = -1) {
    return add(std::move(name), start, end, current(), run);
  }
  /// Open a span on the main thread under the innermost open one.
  int open(std::string name, int run = -1) {
    if (!enabled_) return -1;
    const auto now = Clock::now();
    const int id = add_here(std::move(name), now, now, run);
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(id)].end_us = us_of(Clock::now());
    stack_.pop_back();
  }
  [[nodiscard]] int current() const { return stack_.empty() ? -1 : stack_.back(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around a call made on the main thread.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name, int run = -1)
      : log_{log}, id_{log.open(std::move(name), run)} {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Probes and observers owned by the benchmark.

/// LP runtime probe.  Marks the first on_run_start after arm() — the end
/// of scenario set-up on the LP engine — and keeps per-LP and per-worker
/// totals.  LpProbe's threading contract gives every slot one writer.
class BenchLpProbe final : public sim::par::LpProbe {
 public:
  struct alignas(64) LpSlot {
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    double busy_ms = 0.0;
  };
  struct alignas(64) WorkerSlot {
    double wait_ms = 0.0;
  };

  void arm() { started_.reset(); }

  void on_run_start(std::size_t lp_count, std::size_t threads, std::uint64_t) override {
    if (!started_.has_value()) started_ = Clock::now();
    if (lps_.size() < lp_count) lps_.resize(lp_count);
    if (workers_.size() < threads) workers_.resize(threads);
  }
  void on_lp_window(std::size_t lp, std::uint64_t, double run_ms, std::uint64_t events) override {
    LpSlot& s = lps_[lp];
    ++s.windows;
    s.events += events;
    s.busy_ms += run_ms;
  }
  void on_barrier_wait(std::size_t worker, std::uint64_t, double wait_ms) override {
    workers_[worker].wait_ms += wait_ms;
  }
  void on_mailbox_drain(std::size_t, std::uint64_t, std::size_t) override {}

  [[nodiscard]] const std::optional<Clock::time_point>& started() const { return started_; }
  [[nodiscard]] const std::vector<LpSlot>& lps() const { return lps_; }
  [[nodiscard]] const std::vector<WorkerSlot>& workers() const { return workers_; }

 private:
  std::optional<Clock::time_point> started_;
  std::vector<LpSlot> lps_;
  std::vector<WorkerSlot> workers_;
};

/// Fluid certification probe: the wall time of every accepted jump.
class BenchFluidProbe final : public fl::FluidProbe {
 public:
  void on_cert_event(const fl::FluidCertEvent& e) override {
    if (e.kind == fl::FluidCertEvent::Kind::kAccept) accepts_.push_back(Clock::now());
  }
  [[nodiscard]] const std::vector<Clock::time_point>& accepts() const { return accepts_; }

 private:
  std::vector<Clock::time_point> accepts_;
};

/// Observer on the bottleneck links of one serial run: data arrivals,
/// drops and an occupancy histogram taken at every queue-length change.
/// It outlives the network, so it never detaches from a link.
class BottleneckObserver final : public net::LinkObserver {
 public:
  static constexpr std::size_t kMaxQueue = 4096;

  void attach(const std::vector<net::Link*>& links) {
    for (net::Link* l : links) {
      if (l == nullptr) continue;
      l->add_observer(this, net::Link::kObserveEnqueue | net::Link::kObserveDrop |
                                net::Link::kObserveQueueLength);
    }
  }
  void on_enqueue(const net::Packet& p, sim::SimTime) override {
    if (p.is_data()) ++arrivals_;
  }
  void on_drop(const net::Packet& p, sim::SimTime) override {
    if (p.is_data()) {
      ++arrivals_;
      ++drops_;
    }
  }
  void on_queue_length(std::size_t n, sim::SimTime) override { ++hist_[std::min(n, kMaxQueue)]; }

  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] double queue_quantile(double q) const {
    std::uint64_t total = 0;
    for (std::uint64_t c : hist_) total += c;
    if (total == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t n = 0; n < hist_.size(); ++n) {
      seen += hist_[n];
      if (seen > rank) return static_cast<double>(n);
    }
    return static_cast<double>(kMaxQueue);
  }

 private:
  std::uint64_t arrivals_ = 0;
  std::uint64_t drops_ = 0;
  std::array<std::uint64_t, kMaxQueue + 1> hist_{};
};

struct Hooks {
  BenchLpProbe lp;
  BenchFluidProbe fluid;
  BottleneckObserver observer;
};

// ---------------------------------------------------------------------------
// Workloads (see README.md for why each was chosen).

constexpr std::array<sc::Mechanism, 9> kMechanisms = {
    sc::Mechanism::Corelite, sc::Mechanism::Csfq,  sc::Mechanism::DropTail,
    sc::Mechanism::Red,      sc::Mechanism::Fred,  sc::Mechanism::Wfq,
    sc::Mechanism::EcnBit,   sc::Mechanism::Choke, sc::Mechanism::Sfq};

std::size_t hw_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

struct Workload {
  std::vector<rn::RunDescriptor> runs;
  /// Worker threads of a SweepRunner pass; 0 runs the descriptors one
  /// after another on the calling thread, the way a one-run tool does.
  std::size_t jobs = 0;
};

std::optional<Workload> make_workload(const Options& o) {
  Workload w;
  if (o.workload == "paper-matrix") {
    rn::SweepGrid g;
    g.scenarios = {"fig3", "fig5", "fig7", "fig9"};
    g.mechanisms.assign(kMechanisms.begin(), kMechanisms.end());
    g.base_seed = o.seed;
    g.lp = 1;
    if (o.smoke) g.duration_sec = 20.0;
    w.runs = rn::expand_grid(g);
    w.jobs = std::min<std::size_t>(4, hw_threads());
    return w;
  }
  rn::RunDescriptor d;
  d.seed = rn::derive_seed(o.seed, 0);
  d.mechanism = sc::Mechanism::Corelite;
  d.lp = 1;
  if (o.workload == "gen-100k" || o.workload == "gen-100k-lp4") {
    d.scenario = o.smoke ? "gen-pl8-10000" : "gen-pl8-100000";
    d.duration_sec = 5.0;
    if (o.workload == "gen-100k-lp4") {
      d.lp = 4;
      d.lp_threads = std::min<std::size_t>(4, hw_threads());
    }
    w.runs.push_back(std::move(d));
    return w;
  }
  if (o.workload == "steady-1k-fluid") {
    // CSFQ certifies on every seed; Corelite's jump count swings 0..3
    // from seed to seed, which no per-seed bound could hold.  Eight
    // seeds per rep average out the remaining one-dwell differences.
    d.scenario = "gen-pl8-1000-steady";
    d.mechanism = sc::Mechanism::Csfq;
    d.duration_sec = o.smoke ? 60.0 : 300.0;
    d.fluid = !o.reference;
    const std::size_t n = o.reference ? 1 : o.smoke ? 2 : 8;
    for (std::size_t k = 0; k < n; ++k) {
      d.seed = rn::derive_seed(o.seed, k);
      w.runs.push_back(d);
    }
    return w;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// The measured pass.

struct RunRecord {
  sc::Mechanism mechanism = sc::Mechanism::Corelite;
  double wait_ms = 0.0;   ///< pass start -> run start
  double run_ms = 0.0;    ///< run_paper_scenario call -> return
  double setup_ms = -1.0; ///< run_paper_scenario call -> first hook; < 0: not observed
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t feedback = 0;
  bool ok = false;
};

struct PassResult {
  Clock::time_point start{}, end{};
  int span = -1;
  std::vector<RunRecord> runs;
  std::uint64_t digest = 0;
  fl::FluidStats fluid{};
  sim::HotPathCounters counters{};
  /// A pool pass keeps its RunResults; a direct pass keeps run 0's
  /// full result.
  std::vector<rn::RunResult> results;
  std::optional<sc::ScenarioResult> result0;

  [[nodiscard]] double setup_ms() const {
    double s = 0.0;
    for (const RunRecord& r : runs) s += std::max(0.0, r.setup_ms);
    return s;
  }
};

void add_fluid(fl::FluidStats& into, const fl::FluidStats& f) {
  into.jumps += f.jumps;
  into.fast_forwarded_sec += f.fast_forwarded_sec;
  into.events_elided_est += f.events_elided_est;
  into.cert_attempts += f.cert_attempts;
  into.cert_reject_min_skip += f.cert_reject_min_skip;
  into.cert_reject_drift += f.cert_reject_drift;
  into.cert_reject_agreement += f.cert_reject_agreement;
}

/// One SweepRunner pass.  Only run 0 can carry hooks: its spec hook
/// fires right before execute_run calls run_paper_scenario, its
/// instrument once the network is wired.
PassResult run_pool_pass(const Workload& w, bool trace, SpanLog& spans, Hooks& hooks) {
  PassResult p;
  Clock::time_point setup_begin{};
  std::optional<Clock::time_point> setup_end;
  rn::SweepRunner runner{w.jobs};
  runner.set_run_spec_hook(0, [&setup_begin](sc::ScenarioSpec&) { setup_begin = Clock::now(); });
  runner.set_run_instrument(0, [&setup_end, &hooks, trace](net::Network&,
                                                           const std::vector<net::Link*>& links) {
    setup_end = Clock::now();
    if (trace) hooks.observer.attach(links);
  });

  int runner_span = -1;
  p.start = Clock::now();
  {
    Scoped pass{spans, "pass"};
    p.span = pass.id();
    {
      Scoped s{spans, "runner::SweepRunner::run"};
      runner_span = s.id();
      p.results = runner.run(w.runs);
    }
    Scoped s{spans, "runner::combined_digest"};
    p.digest = rn::combined_digest(p.results);
  }
  p.end = Clock::now();

  for (const rn::RunResult& r : p.results) {
    RunRecord rec;
    rec.mechanism = r.desc.mechanism;
    rec.wait_ms = r.wall_start_ms;
    rec.run_ms = r.wall_ms;
    rec.events = r.events;
    rec.delivered = r.delivered;
    rec.drops = r.total_drops;
    rec.feedback = r.feedback;
    rec.ok = r.ok;
    const auto begin = plus_ms(p.start, r.wall_start_ms);
    const int run_span = spans.add("scenario::run_paper_scenario", begin,
                                   plus_ms(begin, r.wall_ms), runner_span,
                                   static_cast<int>(r.index), r.worker + 1);
    if (r.index == 0 && setup_end.has_value()) {
      rec.setup_ms = ms_between(setup_begin, *setup_end);
      spans.add("setup", setup_begin, *setup_end, run_span, 0, r.worker + 1);
    }
    fl::FluidStats f;
    f.jumps = r.fluid_jumps;
    f.fast_forwarded_sec = r.fluid_ff_sec;
    f.events_elided_est = r.fluid_events_elided;
    f.cert_attempts = r.cert_attempts;
    f.cert_reject_min_skip = r.cert_rejects_min_skip;
    f.cert_reject_drift = r.cert_rejects_drift;
    f.cert_reject_agreement = r.cert_rejects_agreement;
    add_fluid(p.fluid, f);
    p.runs.push_back(rec);
  }
  return p;
}

/// The descriptors run one after another on this thread: build_spec,
/// run_paper_scenario, result_digest — what a one-run tool does.
PassResult run_direct_pass(const Workload& w, bool trace, SpanLog& spans, Hooks& hooks) {
  PassResult p;
  std::vector<rn::RunResult> digests;
  p.start = Clock::now();
  {
    Scoped pass{spans, "pass"};
    p.span = pass.id();
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
      const int run = static_cast<int>(i);
      RunRecord rec;
      rec.mechanism = w.runs[i].mechanism;
      rec.wait_ms = ms_between(p.start, Clock::now());
      std::optional<sc::ScenarioSpec> spec;
      {
        Scoped s{spans, "runner::build_spec", run};
        spec = rn::build_spec(w.runs[i]);
      }
      if (!spec.has_value()) {
        p.runs.push_back(rec);
        continue;
      }
      std::optional<Clock::time_point> setup_end;
      if (spec->lp > 1) {
        hooks.lp.arm();
        spec->lp_probe = &hooks.lp;
      } else {
        spec->instrument = [&setup_end, &hooks, trace, i](net::Network&,
                                                          const std::vector<net::Link*>& links) {
          setup_end = Clock::now();
          if (trace && i == 0) hooks.observer.attach(links);
        };
      }
      if (trace) spec->fluid_probe = &hooks.fluid;

      std::optional<sc::ScenarioResult> r;
      Clock::time_point begin{};
      {
        Scoped s{spans, "scenario::run_paper_scenario", run};
        begin = Clock::now();
        r.emplace(sc::run_paper_scenario(*spec));
        const auto end = Clock::now();
        rec.run_ms = ms_between(begin, end);
        if (hooks.lp.started().has_value()) setup_end = hooks.lp.started();
        if (setup_end.has_value()) {
          rec.setup_ms = ms_between(begin, *setup_end);
          spans.add_here("setup", begin, *setup_end, run);
          spans.add_here("simulate", *setup_end, end, run);
        }
      }
      {
        Scoped s{spans, "runner::result_digest", run};
        digests.emplace_back().digest = rn::result_digest(*r);
      }
      rec.events = r->events_processed;
      rec.delivered = r->tracker.total_delivered();
      rec.drops = r->total_data_drops;
      rec.feedback = r->feedback_messages;
      rec.ok = r->unrouteable == 0 && rec.events > 0;
      add_fluid(p.fluid, r->fluid_stats);
      p.runs.push_back(rec);
      if (i == 0) p.result0 = std::move(r);
    }
    Scoped s{spans, "runner::combined_digest"};
    p.digest = rn::combined_digest(digests);
  }
  p.end = Clock::now();
  return p;
}

/// Per-flow data packets delivered in [T/2, T], from the cumulative
/// service series.
std::vector<double> steady_throughput(const sc::ScenarioResult& r, double t_end) {
  std::vector<double> thr;
  for (const auto& [id, fs] : r.tracker.all()) {
    thr.push_back(fs.cumulative_delivered.value_at(t_end) -
                  fs.cumulative_delivered.value_at(t_end / 2.0));
  }
  return thr;
}

// ---------------------------------------------------------------------------
// Layer metrics read from the pass.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Layer metrics in insertion order, printed as one JSON object.
class Metrics {
 public:
  void set(std::string name, double v) { items_.emplace_back(std::move(name), v); }
  void write(std::ostream& os) const {
    os << '{';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      os << (i > 0 ? "," : "") << '"' << items_[i].first << "\":" << items_[i].second;
    }
    os << '}';
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

void pass_metrics(const Workload& w, const PassResult& p, const Hooks& hooks, Metrics& m) {
  std::vector<double> waits;
  std::vector<double> runs;
  double run_sum = 0.0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  for (const RunRecord& r : p.runs) {
    waits.push_back(r.wait_ms);
    runs.push_back(r.run_ms);
    run_sum += r.run_ms;
    events += r.events;
    delivered += r.delivered;
    drops += r.drops;
  }
  const double jobs = static_cast<double>(std::max<std::size_t>(1, w.jobs));
  m.set("runner.runs", static_cast<double>(p.runs.size()));
  m.set("runner.parallel_eff", ratio(run_sum, jobs * ms_between(p.start, p.end)));
  m.set("runner.wait_ms_p50", quantile(waits, 0.5));
  m.set("runner.wait_ms_p95", quantile(waits, 0.95));
  m.set("runner.run_ms_p50", quantile(runs, 0.5));
  m.set("runner.run_ms_p95", quantile(runs, 0.95));

  // Host time per simulated event over the simulating part of the runs.
  // A pool pass observes run 0's set-up only; paper set-ups are well
  // under 1% of a run, so its other runs count whole.
  const sim::HotPathCounters& c = p.counters;
  m.set("sim.events", static_cast<double>(events));
  m.set("sim.ns_per_event", ratio((run_sum - p.setup_ms()) * 1e6, static_cast<double>(events)));
  m.set("sim.wheel_insert_rate", c.wheel_insert_rate());
  m.set("sim.cascades_per_event",
        ratio(static_cast<double>(c.wheel_cascades), static_cast<double>(events)));
  m.set("sim.heap_inserts", static_cast<double>(c.heap_inserts));
  m.set("sim.batch_drained", static_cast<double>(c.batch_drained));
  m.set("sim.rng_draws", static_cast<double>(c.rng_draws));

  double busy = 0.0;
  double wait = 0.0;
  std::uint64_t lp_max = 0;
  std::uint64_t lp_sum = 0;
  std::uint64_t windows = 0;
  for (const auto& s : hooks.lp.lps()) {
    busy += s.busy_ms;
    lp_max = std::max(lp_max, s.events);
    lp_sum += s.events;
    windows = std::max(windows, s.windows);
  }
  for (const auto& s : hooks.lp.workers()) wait += s.wait_ms;
  const auto lp_n = static_cast<double>(hooks.lp.lps().size());
  m.set("lp.windows", static_cast<double>(windows));
  m.set("lp.barrier_wait_frac", ratio(wait, wait + busy));
  m.set("lp.imbalance", ratio(static_cast<double>(lp_max) * lp_n, static_cast<double>(lp_sum)));
  m.set("lp.cross_lp_frac",
        ratio(static_cast<double>(c.cross_lp_events), static_cast<double>(events)));
  m.set("lp.mailbox_flushes", static_cast<double>(c.mailbox_flushes));

  const fl::FluidStats& f = p.fluid;
  double fluid_sec = 0.0;
  for (const rn::RunDescriptor& d : w.runs) fluid_sec += d.fluid ? d.duration_sec : 0.0;
  m.set("fluid.jumps", static_cast<double>(f.jumps));
  m.set("fluid.ff_frac", ratio(f.fast_forwarded_sec, fluid_sec));
  m.set("fluid.events_elided", static_cast<double>(f.events_elided_est));
  m.set("fluid.cert_attempts", static_cast<double>(f.cert_attempts));
  m.set("fluid.cert_accept_ratio",
        ratio(static_cast<double>(f.jumps), static_cast<double>(f.cert_attempts)));
  m.set("fluid.rejects_min_skip", static_cast<double>(f.cert_reject_min_skip));
  m.set("fluid.rejects_drift", static_cast<double>(f.cert_reject_drift));
  m.set("fluid.rejects_agreement", static_cast<double>(f.cert_reject_agreement));

  m.set("net.delivered", static_cast<double>(delivered));
  m.set("net.drops", static_cast<double>(drops));
  m.set("net.observer_dispatches", static_cast<double>(c.observer_dispatches));

  // Edge feedback (Corelite markers echoed back, loss notices) per
  // thousand delivered packets, by mechanism.
  for (sc::Mechanism mech : kMechanisms) {
    std::uint64_t fb = 0;
    std::uint64_t del = 0;
    for (const RunRecord& r : p.runs) {
      if (r.mechanism != mech) continue;
      fb += r.feedback;
      del += r.delivered;
    }
    m.set("qos.feedback_per_kpkt." + sc::mechanism_name(mech),
          ratio(1000.0 * static_cast<double>(fb), static_cast<double>(del)));
  }
  m.set("csfq.exp_calls", static_cast<double>(c.exp_calls));
  m.set("csfq.exp_hit_rate", c.exp_hit_rate());
  m.set("stats.series_appends", static_cast<double>(c.series_appends));
}

// ---------------------------------------------------------------------------
// Traced reps only: observer/probe readings and isolated calls, made
// after the pass so they never perturb its wall time.

/// Mean wall microseconds per call of `fn`, repeated for >= 20 ms.
template <typename Fn>
double time_repeated_us(Fn&& fn) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  do {
    fn();
    ++n;
  } while (ms_between(t0, Clock::now()) < 20.0);
  return ms_between(t0, Clock::now()) * 1000.0 / static_cast<double>(n);
}

/// The workload's weighted max-min problem: the Figure-2 chain for
/// paper scenarios, the parking-lot paths for generated ones.
struct Allocation {
  std::vector<double> caps;
  std::vector<fl::AllocFlow> flows;
};

Allocation allocation_of(const sc::ScenarioSpec& spec) {
  Allocation a;
  if (!spec.generated.has_value()) {
    a.caps.assign(sc::PaperTopology::kCongestedLinks,
                  spec.topology.link_rate.pps(spec.topology.packet_size));
    for (std::size_t i = 0; i < spec.num_flows; ++i) {
      fl::AllocFlow f;
      f.weight = spec.weights.at(i);
      for (std::size_t l : sc::PaperTopology::congested_links(static_cast<net::FlowId>(i + 1))) {
        f.links.push_back(static_cast<std::uint32_t>(l));
      }
      a.flows.push_back(std::move(f));
    }
    return a;
  }
  // Directed chain link i runs router i -> i+1, link stages+i the
  // reverse; a flow crosses every chain link between its routers.
  const sc::GeneratedTopology& topo = spec.generated->topology;
  const auto stages = static_cast<std::uint32_t>(topo.links.size());
  a.caps.assign(2 * stages, topo.capacity_pps());
  for (const sc::GenFlow& g :
       sc::generate_flows(topo, spec.generated->flows, spec.duration.sec(), spec.seed)) {
    fl::AllocFlow f;
    f.weight = g.weight;
    const std::uint32_t base = g.src_router < g.dst_router ? 0 : stages;
    for (std::uint32_t l = std::min(g.src_router, g.dst_router);
         l < std::max(g.src_router, g.dst_router); ++l) {
      f.links.push_back(base + l);
    }
    a.flows.push_back(std::move(f));
  }
  return a;
}

void isolated_calls(const Workload& w, const PassResult& p, SpanLog& spans, Metrics& m) {
  Scoped root{spans, "isolated"};

  double build_ms = 0.0;
  std::vector<sc::ScenarioSpec> specs;
  for (const rn::RunDescriptor& d : w.runs) {
    const auto t0 = Clock::now();
    auto spec = rn::build_spec(d);
    const auto t1 = Clock::now();
    spans.add_here("runner::build_spec", t0, t1);
    build_ms += ms_between(t0, t1);
    if (spec.has_value()) specs.push_back(std::move(*spec));
  }
  m.set("scenario.build_spec_ms", build_ms);

  // Generators with each run's own arguments: make_parking_lot runs
  // inside build_spec, generate_flows inside run_paper_scenario's
  // set-up.  Paper scenarios have fixed populations and call neither.
  double topo_ms = 0.0;
  double flows_ms = 0.0;
  for (const sc::ScenarioSpec& spec : specs) {
    if (!spec.generated.has_value()) continue;
    const sc::GeneratedWorkload& gw = *spec.generated;
    const auto t0 = Clock::now();
    (void)sc::make_parking_lot(gw.topology.links.size());
    const auto t1 = Clock::now();
    (void)sc::generate_flows(gw.topology, gw.flows, spec.duration.sec(), spec.seed);
    const auto t2 = Clock::now();
    spans.add_here("scenario::make_parking_lot", t0, t1);
    spans.add_here("scenario::generate_flows", t1, t2);
    topo_ms += ms_between(t0, t1);
    flows_ms += ms_between(t1, t2);
  }
  const double setup_ms = p.setup_ms();
  m.set("scenario.topology_gen_share", ratio(topo_ms, build_ms));
  m.set("scenario.flow_gen_share", ratio(flows_ms, setup_ms));
  m.set("scenario.wire_ms", std::max(0.0, setup_ms - flows_ms));
  if (specs.empty()) return;

  {
    const Allocation a = allocation_of(specs.front());
    const auto t0 = Clock::now();
    m.set("fluid.water_fill_us",
          time_repeated_us([&a] { (void)fl::water_fill(a.caps, a.flows); }));
    spans.add_here("sim::fluid::water_fill", t0, Clock::now());
  }

  // Per-run result reduction, as the sweep does it: the run digest, the
  // water-filling oracle at T/2 and Jain's index over the run's rates.
  const auto r0 = Clock::now();
  std::size_t reduced = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sc::ScenarioSpec& spec = specs[i];
    std::vector<double> rates;
    std::vector<double> weights;
    if (i == 0 && p.result0.has_value()) {
      const auto t0 = Clock::now();
      (void)rn::result_digest(*p.result0);
      spans.add_here("runner::result_digest", t0, Clock::now());
      for (const auto& [id, fs] : p.result0->tracker.all()) {
        rates.push_back(static_cast<double>(fs.delivered));
        weights.push_back(fs.weight);
      }
    } else if (i < p.results.size()) {
      rates = p.results[i].avg_rate_pps;
      weights = spec.weights;
    } else {
      continue;
    }
    const auto t0 = Clock::now();
    (void)sc::ideal_rates_at(spec, sim::SimTime::seconds(spec.duration.sec() / 2.0));
    const auto t1 = Clock::now();
    (void)corelite::stats::jain_index(rates, weights);
    spans.add_here("scenario::ideal_rates_at", t0, t1);
    spans.add_here("stats::jain_index", t1, Clock::now());
    ++reduced;
  }
  m.set("stats.reduce_ms", ratio(ms_between(r0, Clock::now()), static_cast<double>(reduced)));
}

/// Wall of fig3/corelite with the fairness auditor on, over the mean of
/// the same run with it off just before and just after.
double audit_overhead(const rn::RunDescriptor& d, SpanLog& spans) {
  auto spec = rn::build_spec(d);
  if (!spec.has_value()) return 0.0;
  double off_ms = 0.0;
  double on_ms = 0.0;
  for (const bool audited : {false, true, false}) {
    spec->audit.enabled = audited;
    const auto t0 = Clock::now();
    (void)sc::run_paper_scenario(*spec);
    const auto t1 = Clock::now();
    spans.add_here(audited ? "telemetry::audit_on" : "telemetry::audit_off", t0, t1);
    (audited ? on_ms : off_ms) += ms_between(t0, t1);
  }
  return ratio(on_ms, off_ms / 2.0);
}

void trace_metrics(const Workload& w, const PassResult& p, const Hooks& hooks, SpanLog& spans,
                   Metrics& m) {
  const BottleneckObserver& o = hooks.observer;
  m.set("net.bottleneck_pkts", static_cast<double>(o.arrivals()));
  m.set("net.drop_frac", ratio(static_cast<double>(o.drops()), static_cast<double>(o.arrivals())));
  m.set("net.queue_len_p50", o.queue_quantile(0.50));
  m.set("net.queue_len_p99", o.queue_quantile(0.99));

  for (const auto& t : hooks.fluid.accepts()) spans.add("fluid.jump", t, t, p.span, 0);

  isolated_calls(w, p, spans, m);
  m.set("telemetry.audit_overhead", w.jobs > 0 ? audit_overhead(w.runs.front(), spans) : 0.0);
}

// ---------------------------------------------------------------------------

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--reference") {
      o.reference = true;
    } else if (a == "--workload" && i + 1 < argc) {
      o.workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      const std::string v = argv[++i];
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0') return false;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::cerr << "usage: corelite_bench --workload NAME [--seed S] [--trace] [--smoke] "
                 "[--reference]\n";
    return 2;
  }
  const auto w = make_workload(o);
  if (!w.has_value()) {
    std::cerr << "corelite_bench: unknown workload '" << o.workload << "'\n";
    return 2;
  }

  SpanLog spans{o.trace};
  Hooks hooks;
  sim::reset_hotpath_counters();
  PassResult p = w->jobs > 0 ? run_pool_pass(*w, o.trace, spans, hooks)
                             : run_direct_pass(*w, o.trace, spans, hooks);
  p.counters = sim::aggregated_hotpath_counters();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // A run fails if it did not complete cleanly or its set-up hook, which
  // every run in a direct pass carries, never fired.
  std::size_t failed = 0;
  for (const RunRecord& r : p.runs) {
    failed += r.ok && (w->jobs > 0 || r.setup_ms >= 0.0) ? 0 : 1;
  }

  Metrics m;
  pass_metrics(*w, p, hooks, m);
  if (o.trace) {
    trace_metrics(*w, p, hooks, spans, m);
    // The probe must see every jump FluidStats counts.
    if (hooks.fluid.accepts().size() != p.fluid.jumps) {
      failed = p.runs.size();
    }
  }
  std::vector<double> thr;
  if (p.result0.has_value() && o.workload == "steady-1k-fluid") {
    thr = steady_throughput(*p.result0, w->runs.front().duration_sec);
  }

  std::ostream& os = std::cout;
  os << std::setprecision(17) << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
     << ",\"runs\":" << p.runs.size() << ",\"runs_failed\":" << failed << ",\"digest\":\""
     << hex64(p.digest) << "\",\"e2e\":{\"wall_s\":" << ms_between(p.start, p.end) / 1000.0
     << ",\"cpu_s\":" << cpu_s << ",\"setup_s\":" << p.setup_ms() / 1000.0
     << ",\"peak_rss_mb\":" << rss_mb << "},\"layers\":";
  m.write(os);
  os << ",\"thr\":[";
  for (std::size_t i = 0; i < thr.size(); ++i) os << (i > 0 ? "," : "") << thr[i];
  os << "],\"spans\":[";
  const auto& sp = spans.spans();
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const Span& s = sp[i];
    os << (i > 0 ? "," : "") << "[\"" << s.name << "\"," << s.start_us << ',' << s.end_us << ','
       << s.parent << ',' << s.run << ',' << s.tid << ']';
  }
  os << "]}\n";
  return 0;
}
