#include "sim/parallel/lp_runtime.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "sim/hotpath.h"
#include "sim/parallel/thread_budget.h"

namespace corelite::sim::par {

std::uint64_t derive_lp_seed(std::uint64_t seed, std::size_t lp) {
  // splitmix64 with an LP-specific tag (ASCII "p-stream"); the additive
  // multiplier differs from runner::derive_seed's golden-ratio constant
  // so per-repeat and per-LP streams can never alias.
  std::uint64_t z = (seed ^ 0x702d73747265616dULL) +
                    0x632be59bd9b4e019ULL * (static_cast<std::uint64_t>(lp) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

LpRuntime::LpRuntime(std::size_t lp_count, std::uint64_t seed, TimeDelta lookahead,
                     std::size_t threads_requested)
    : lookahead_{lookahead} {
  const std::size_t k = std::max<std::size_t>(1, lp_count);
  sims_.reserve(k);
  if (k == 1) {
    // Degenerate runtime: same seed, same engine, same everything as
    // the legacy serial path — golden digests depend on this.
    sims_.push_back(std::make_unique<Simulator>(seed));
    return;
  }
  assert(lookahead_ > TimeDelta::zero() && "multi-LP runtime needs positive lookahead");
  for (std::size_t i = 0; i < k; ++i) {
    sims_.push_back(std::make_unique<Simulator>(derive_lp_seed(seed, i)));
  }
  boxes_.resize(k * k);
  if (threads_requested > 0) {
    threads_ = std::min(threads_requested, k);
  } else {
    budget_granted_ = ThreadBudget::instance().acquire(k - 1);
    threads_ = 1 + budget_granted_;
    if (threads_ < k) {
      // Log the clamp once per process: sweeps construct one runtime
      // per run and would otherwise repeat this hundreds of times.
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "corelite: --lp %zu clamped to %zu thread(s) "
                     "(%zu hardware, %zu already reserved); event order and "
                     "digest are unaffected\n",
                     k, threads_, ThreadBudget::hardware_threads(),
                     ThreadBudget::instance().used() - budget_granted_);
      }
    }
  }
}

LpRuntime::~LpRuntime() {
  if (budget_granted_ > 0) ThreadBudget::instance().release(budget_granted_);
}

void LpRuntime::post(std::size_t src_lp, std::size_t dst_lp, SimTime at,
                     std::function<void()> fn) {
  assert(src_lp < sims_.size() && dst_lp < sims_.size() && src_lp != dst_lp);
  ++hotpath_counters().cross_lp_events;
  boxes_[src_lp * sims_.size() + dst_lp].msgs.push_back({at, std::move(fn)});
}

void LpRuntime::drain_mailboxes(std::size_t dst_lp, std::uint64_t window) {
  // Fixed merge order: src LP ascending, FIFO within each mailbox.
  // Messages are scheduled into dst's queue here, which assigns their
  // tie-breaking sequence numbers — identical at any thread count
  // because this function always runs on dst's owning worker, after the
  // barrier made every src's appends visible.
  const std::size_t k = sims_.size();
  Simulator& dst = *sims_[dst_lp];
  for (std::size_t src = 0; src < k; ++src) {
    Mailbox& box = boxes_[src * k + dst_lp];
    if (box.msgs.empty()) continue;
    ++hotpath_counters().mailbox_flushes;
    if (probe_ != nullptr) probe_->on_mailbox_drain(dst_lp, window, box.msgs.size());
    for (Mailbox::Msg& m : box.msgs) {
      dst.at_detached(m.at, std::move(m.fn));
    }
    box.msgs.clear();  // keeps capacity for the next window
  }
}

void LpRuntime::worker_loop(std::size_t w, SimTime deadline, void* barrier) {
  auto& bar = *static_cast<std::barrier<>*>(barrier);
  const std::size_t k = sims_.size();
  const std::size_t t = threads_;
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  const bool probing = probe_ != nullptr;
  for (std::uint64_t window = 0;; ++window) {
    // Same expression every run: w_end is a deterministic double.
    SimTime w_end =
        SimTime::seconds(lookahead_.sec() * static_cast<double>(window + 1));
    if (!(w_end < deadline)) w_end = deadline;
    for (std::size_t lp = w; lp < k; lp += t) {
      if (!probing) {
        sims_[lp]->run_until(w_end);
        continue;
      }
      const std::uint64_t ev0 = sims_[lp]->events_processed();
      const auto t0 = Clock::now();
      sims_[lp]->run_until(w_end);
      probe_->on_lp_window(lp, window, ms_since(t0), sims_[lp]->events_processed() - ev0);
    }
    if (probing) {
      const auto b0 = Clock::now();
      bar.arrive_and_wait();
      probe_->on_barrier_wait(w, window, ms_since(b0));
    } else {
      bar.arrive_and_wait();
    }
    if (w == 0) ++hotpath_counters().lp_barriers;
    for (std::size_t lp = w; lp < k; lp += t) drain_mailboxes(lp, window);
    if (probing) {
      const auto b0 = Clock::now();
      bar.arrive_and_wait();
      probe_->on_barrier_wait(w, window, ms_since(b0));
    } else {
      bar.arrive_and_wait();
    }
    if (w == 0) ++hotpath_counters().lp_barriers;
    if (w_end == deadline) break;
  }
  // Extra workers die here; their thread-local hot-path counts must
  // reach the process aggregate before the join.
  if (w != 0) flush_hotpath_counters();
}

void LpRuntime::run_until(SimTime deadline) {
  if (sims_.size() == 1) {
    sims_[0]->run_until(deadline);
    return;
  }
  // One lookahead_ns entry per parallel run: profile rows report the
  // window length the partition achieved.
  hotpath_counters().lookahead_ns +=
      static_cast<std::uint64_t>(lookahead_.sec() * 1e9);
  if (probe_ != nullptr) {
    const double windows = std::ceil(std::max(0.0, deadline.sec()) / lookahead_.sec());
    probe_->on_run_start(sims_.size(), threads_, static_cast<std::uint64_t>(windows));
  }
  std::barrier<> bar{static_cast<std::ptrdiff_t>(threads_)};
  std::vector<std::thread> extra;
  extra.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w) {
    extra.emplace_back([this, w, deadline, &bar] { worker_loop(w, deadline, &bar); });
  }
  worker_loop(0, deadline, &bar);
  for (std::thread& th : extra) th.join();
}

std::uint64_t LpRuntime::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events_processed();
  return total;
}

}  // namespace corelite::sim::par
