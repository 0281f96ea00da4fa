// perfbench_driver - end-to-end, layer-attributed benchmark of the path a
// `gossip_run` invocation takes: TrialRunner(1).run(spec), the JSON report,
// then the configured telemetry exporters.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1 [--tiny]
//
// --trace=0 measures the end-to-end metrics with nothing but the library's
// own code on the timed path. --trace=1 additionally re-executes every
// trial step by step, as TrialRunner::run_trial does, wrapping each public
// layer call in a span of this file; the engine's per-round phase clocks
// come from the Telemetry records the library already keeps. --tiny runs
// the same workload at a small n (the self-check mode of run.py).
//
// Output: one JSON document on stdout with the metrics, the host
// calibration, the sample counts and the output-check verdicts. run.py
// turns it into the benchmark's result line. See README.md beside this
// file for the metric definitions.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/resource.h>

#include "common/rng.hpp"
#include "core/report.hpp"
#include "obs/export.hpp"
#include "obs/provenance.hpp"
#include "obs/recorder.hpp"
#include "runner/json_report.hpp"
#include "runner/json_writer.hpp"
#include "runner/registry.hpp"
#include "runner/scenario.hpp"
#include "runner/trial_runner.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Byte-counting sink: exports are serialised in full but never hit disk.

class CountingBuf final : public std::streambuf {
 public:
  CountingBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }
  [[nodiscard]] std::uint64_t bytes() const {
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type ch) override {
    flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(buf_.data(), buf_.data() + buf_.size());
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  std::array<char, 1 << 16> buf_{};
  std::uint64_t flushed_ = 0;
};

/// Writes with `write` into a fresh counting sink and returns the byte count.
template <class Write>
std::uint64_t count_bytes(Write&& write) {
  CountingBuf buf;
  std::ostream os(&buf);
  write(os);
  os.flush();
  return buf.bytes();
}

// ---------------------------------------------------------------------------
// Workloads. The spec is built from the seed alone; the library sees only it.

// Workload rationale: README.md and BENCHMARK.json.
runner::ScenarioSpec make_spec(const std::string& workload, std::uint64_t seed,
                               bool tiny) {
  runner::ScenarioSpec s;
  s.name = workload;
  s.seed = seed;
  s.threads = 1;
  if (workload == "pushpull_1e6") {
    s.algorithm = "push_pull";
    s.n = tiny ? 4096 : 1'000'000;
    s.trials = tiny ? 2 : 3;
  } else if (workload == "cluster2_1e6") {
    s.algorithm = "cluster2";
    s.n = tiny ? 4096 : 1'000'000;
    s.trials = tiny ? 2 : 1;
  } else if (workload == "cluster2_faults_export") {
    s.algorithm = "cluster2";
    s.n = tiny ? 4096 : 65536;
    s.trials = tiny ? 2 : 16;
    s.loss_prob = 0.2;
    s.partition_round = 0;
    s.heal_round = 40;
    s.recovery = true;
    // Output paths arm collection exactly as gossip_run's flags do; the
    // driver serialises each export into a byte-counting sink instead.
    s.timeseries = "timeseries.jsonl";
    s.events = "events.jsonl";
    s.provenance = "provenance.jsonl";
    s.trace = "trace.json";
  } else {
    throw runner::ScenarioError("unknown workload '" + workload + "'");
  }
  s.validate();
  return s;
}

using ExportFn = void (*)(std::ostream&, const std::vector<const obs::Telemetry*>&,
                          const obs::ExportOptions&);
struct Export {
  const char* name;
  ExportFn write;
  const std::string runner::ScenarioSpec::*path;
};
// gossip_run's order.
constexpr Export kExports[] = {
    {"timeseries", &obs::write_timeseries_jsonl, &runner::ScenarioSpec::timeseries},
    {"events", &obs::write_events_jsonl, &runner::ScenarioSpec::events},
    {"provenance", &obs::write_provenance_jsonl, &runner::ScenarioSpec::provenance},
    {"trace", &obs::write_chrome_trace, &runner::ScenarioSpec::trace},
};

// Phase names the per-layer table reports; anything else lands in "other".
constexpr const char* kPhaseNames[] = {"push_pull", "grow",  "square",   "merge_all",
                                       "bounded_push", "pull", "share", "recovery",
                                       "other"};

std::string phase_slot(const std::string& name) {
  for (const char* p : kPhaseNames) {
    if (name == p) return p;
  }
  return "other";
}

// ---------------------------------------------------------------------------
// Output checks. Each failed trial is counted once per scenario execution.

struct Checks {
  std::uint64_t trials = 0;  ///< trials checked
  std::uint64_t failed = 0;  ///< trials with at least one failed check
  std::vector<std::string> messages;

  void fail(const std::string& what) {
    if (messages.size() < 32) messages.push_back(what);
  }
};

std::uint64_t round_envelope(std::uint64_t n) {
  const double lg = std::ceil(std::log2(static_cast<double>(std::max<std::uint64_t>(2, n))));
  return 10 * std::max<std::uint64_t>(1, static_cast<std::uint64_t>(lg)) + 50;
}

/// Per-trial checks that need only the report.
bool check_report(const runner::ScenarioSpec& spec, unsigned trial,
                  const core::BroadcastReport& r, Checks& checks) {
  bool ok = true;
  const std::string at = spec.name + " trial " + std::to_string(trial) + ": ";
  if (r.informed != r.alive || !r.all_informed) {
    checks.fail(at + "stranded, informed " + std::to_string(r.informed) + " < alive " +
                std::to_string(r.alive));
    ok = false;
  }
  if (r.rounds > round_envelope(spec.n)) {
    checks.fail(at + "rounds " + std::to_string(r.rounds) + " > envelope " +
                std::to_string(round_envelope(spec.n)));
    ok = false;
  }
  return ok;
}

/// The per-round records must sum to the report's totals.
bool check_rounds(const runner::ScenarioSpec& spec, unsigned trial,
                  const core::BroadcastReport& r, const obs::Telemetry& tel,
                  Checks& checks) {
  std::uint64_t payload = 0;
  std::uint64_t connections = 0;
  for (const obs::RoundRecord& rec : tel.rounds.records()) {
    payload += rec.payload_messages;
    connections += rec.connections;
  }
  if (payload == r.stats.total.payload_messages &&
      connections == r.stats.total.connections) {
    return true;
  }
  checks.fail(spec.name + " trial " + std::to_string(trial) +
              ": per-round sums (payload " + std::to_string(payload) +
              ", connections " + std::to_string(connections) +
              ") differ from the report (" +
              std::to_string(r.stats.total.payload_messages) + ", " +
              std::to_string(r.stats.total.connections) + ")");
  return false;
}

/// Report equality with every wall-clock-class field excluded (a
/// BroadcastReport has none); `spread` also compares the provenance-derived
/// pair, which a run without telemetry leaves at 0.
bool same_report(const core::BroadcastReport& a, const core::BroadcastReport& b,
                 bool spread) {
  const auto stats_eq = [](const sim::RoundStats& x, const sim::RoundStats& y) {
    return x.pushes == y.pushes && x.pull_requests == y.pull_requests &&
           x.pull_responses == y.pull_responses &&
           x.payload_messages == y.payload_messages &&
           x.connections == y.connections && x.bits == y.bits &&
           x.initiators == y.initiators && x.max_involvement == y.max_involvement;
  };
  if (a.n != b.n || a.alive != b.alive || a.informed != b.informed ||
      a.all_informed != b.all_informed || a.rounds != b.rounds ||
      a.stats.rounds != b.stats.rounds || !stats_eq(a.stats.total, b.stats.total) ||
      a.stats.per_round.size() != b.stats.per_round.size() ||
      a.estimate_n_error != b.estimate_n_error || a.phases.size() != b.phases.size()) {
    return false;
  }
  if (spread && (a.spread_depth != b.spread_depth || a.direct_share != b.direct_share)) {
    return false;
  }
  for (std::size_t i = 0; i < a.stats.per_round.size(); ++i) {
    if (!stats_eq(a.stats.per_round[i], b.stats.per_round[i])) return false;
  }
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const core::PhaseBreakdown& x = a.phases[i];
    const core::PhaseBreakdown& y = b.phases[i];
    if (x.name != y.name || x.rounds != y.rounds ||
        x.payload_messages != y.payload_messages || x.connections != y.connections ||
        x.bits != y.bits) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Host calibration: a fixed xorshift spin, alone and on every hardware
// thread at once. effective_parallelism = threads * alone / together.

std::uint64_t spin(std::uint64_t iters, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

struct HostCalibration {
  double spin_s = 0.0;
  double effective_parallelism = 0.0;
  unsigned threads = 0;
};

HostCalibration calibrate_host() {
  constexpr std::uint64_t kIters = 30'000'000;
  constexpr int kReps = 3;
  HostCalibration h;
  h.threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint64_t> sink(h.threads, 0);
  std::vector<double> alone;
  std::vector<double> together;
  for (int rep = 0; rep < kReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    sink[0] ^= spin(kIters, 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rep));
    alone.push_back(seconds_since(t0));

    t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(h.threads);
    for (unsigned i = 0; i < h.threads; ++i) {
      threads.emplace_back([&sink, i] { sink[i] ^= spin(kIters, 0x2545F4914F6CDD1DULL + i); });
    }
    for (std::thread& t : threads) t.join();
    together.push_back(seconds_since(t0));
  }
  std::uint64_t folded = 0;
  for (std::uint64_t s : sink) folded ^= s;
  if (folded == 0x1234) std::fputc(' ', stderr);  // keeps the spins observable
  h.spin_s = median(alone);
  h.effective_parallelism = h.threads * h.spin_s / median(together);
  return h;
}

// ---------------------------------------------------------------------------
// setup_s: one trial's sim::Network, built with the NetworkOptions
// TrialRunner::run_trial derives for that trial.

struct TrialSeeds {
  std::uint64_t network = 0;
  std::uint64_t adversary = 0;
  Rng rng;
};

TrialSeeds trial_seeds(const runner::ScenarioSpec& spec, unsigned trial) {
  Rng rng = Rng(spec.seed).fork(trial);
  const std::uint64_t network = rng.next_u64();
  const std::uint64_t adversary = rng.next_u64();
  return TrialSeeds{network, adversary, rng};
}

sim::NetworkOptions network_options(const runner::ScenarioSpec& spec,
                                    std::uint64_t network_seed) {
  sim::NetworkOptions o;
  o.n = spec.n;
  o.seed = network_seed;
  o.rumor_bits = spec.rumor_bits;
  o.max_nodes = spec.max_nodes();
  return o;
}

/// The trial's fault model after on_run_begin with the adversary stream
/// (null when the spec is fault-free), as TrialRunner::run_trial builds it.
std::unique_ptr<sim::FaultModel> begin_faults(const runner::ScenarioSpec& spec,
                                              sim::Network& net, std::uint64_t adversary_seed) {
  std::unique_ptr<sim::FaultModel> fault = spec.make_fault_model();
  if (fault) {
    Rng adversary(adversary_seed);
    fault->on_run_begin(net, adversary);
  }
  return fault;
}

/// Uniform source draw, advanced to the next alive node.
std::uint32_t pick_source(const runner::ScenarioSpec& spec, const sim::Network& net,
                          Rng& trial_rng) {
  auto source = static_cast<std::uint32_t>(trial_rng.uniform_below(spec.n));
  while (!net.alive(source)) source = (source + 1) % spec.n;
  return source;
}

/// Appends setup_s samples: at least one network build, then more while
/// `budget_s` lasts. Called between the timed repetitions so the samples
/// span the whole run, like the scenario timings do.
void sample_setup(const runner::ScenarioSpec& spec, double budget_s,
                  std::vector<double>& samples) {
  const Clock::time_point start = Clock::now();
  do {
    const auto trial = static_cast<unsigned>(samples.size() % spec.trials);
    const sim::NetworkOptions opts = network_options(spec, trial_seeds(spec, trial).network);
    const Clock::time_point t0 = Clock::now();
    auto net = std::make_unique<sim::Network>(opts);
    samples.push_back(seconds_since(t0));
    if (net->alive_count() != spec.n) {
      throw std::runtime_error("network built with the wrong population");
    }
  } while (seconds_since(start) < budget_s);
}

// ---------------------------------------------------------------------------
// The untraced scenario: exactly gossip_run's sequence.

struct UntracedRun {
  double scenario_s = 0.0;  ///< TrialRunner::run + report + exports
  double run_s = 0.0;       ///< inside TrialRunner::run only
  std::uint64_t connections = 0;
  std::vector<core::BroadcastReport> reports;
  analysis::ReportAggregate aggregate;
};

/// Reports of a scenario execution every later execution must reproduce.
using Reference = std::vector<core::BroadcastReport>;

bool check_reference(const runner::ScenarioSpec& spec, unsigned trial,
                     const core::BroadcastReport& r, const Reference* reference,
                     const char* what, Checks& checks) {
  if (reference == nullptr || same_report(r, (*reference)[trial], true)) return true;
  checks.fail(spec.name + " trial " + std::to_string(trial) + ": " + what);
  return false;
}

UntracedRun run_untraced(const runner::ScenarioSpec& spec, const Reference* reference,
                         Checks& checks) {
  UntracedRun out;
  runner::ScenarioResult result;
  const Clock::time_point t0 = Clock::now();
  runner::TrialRunner runner(1);
  const Clock::time_point t_run = Clock::now();
  result = runner.run(spec);
  out.run_s = seconds_since(t_run);
  (void)count_bytes([&](std::ostream& os) { runner::write_scenario_json(os, result); });
  const std::vector<const obs::Telemetry*> views = result.telemetry_views();
  for (const Export& e : kExports) {
    if ((spec.*e.path).empty()) continue;
    (void)count_bytes([&](std::ostream& os) { e.write(os, views, obs::ExportOptions{}); });
  }
  out.scenario_s = seconds_since(t0);

  for (unsigned t = 0; t < spec.trials; ++t) {
    const core::BroadcastReport& r = result.reports[t];
    out.connections += r.stats.total.connections;
    bool ok = check_report(spec, t, r, checks);
    if (!result.telemetry.empty()) ok = check_rounds(spec, t, r, *result.telemetry[t], checks) && ok;
    ok = check_reference(spec, t, r, reference, "untraced report differs from the reference",
                         checks) && ok;
    ++checks.trials;
    if (!ok) ++checks.failed;
  }
  out.reports = std::move(result.reports);
  out.aggregate = result.aggregate;
  return out;
}

// ---------------------------------------------------------------------------
// The traced scenario: TrialRunner::run_trial's steps, one span per layer call.

class Spans {
 public:
  template <class F>
  auto time(const std::string& name, F&& f) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      seconds_[name] += seconds_since(t0);
    } else {
      auto r = f();
      seconds_[name] += seconds_since(t0);
      return r;
    }
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& seconds() const { return seconds_; }
  [[nodiscard]] double total() const {
    double s = 0.0;
    for (const auto& [name, secs] : seconds_) s += secs;
    return s;
  }

 private:
  std::map<std::string, double> seconds_;
};

using Metrics = std::map<std::string, double>;

struct TracedRun {
  double wall_s = 0.0;
  Metrics layer;  ///< per-layer metrics of this execution
  Reference reports;
  analysis::ReportAggregate aggregate;
};

/// `detached` also reruns every trial with telemetry = nullptr (outside the
/// traced wall) for obs.inline_s.
TracedRun run_traced(const runner::ScenarioSpec& spec, const Reference* reference,
                     bool detached, Checks& checks) {
  TracedRun out;
  Spans spans;
  std::vector<double> detached_algorithm_s;
  std::uint64_t first_informs = 0;
  std::uint64_t bytes_report = 0;
  std::map<std::string, std::uint64_t> bytes_export;

  const Clock::time_point wall0 = Clock::now();
  const runner::AlgorithmEntry& algo = spans.time("runner.prepare_s", [&]() -> const runner::AlgorithmEntry& {
    spec.validate();
    return runner::require_algorithm(spec.algorithm);
  });
  runner::ScenarioResult result;
  result.spec = spec;
  result.reports.resize(spec.trials);
  result.telemetry.resize(spec.trials);

  for (unsigned t = 0; t < spec.trials; ++t) {
    auto tel = spans.time("obs.attach_s", [&] {
      auto h = std::make_shared<obs::Telemetry>();
      h->rounds.reserve(512);
      return h;
    });
    TrialSeeds seeds = trial_seeds(spec, t);
    const sim::NetworkOptions net_opts = network_options(spec, seeds.network);
    auto net = spans.time("sim.network.build_s",
                          [&] { return std::make_unique<sim::Network>(net_opts); });
    spans.time("obs.attach_s", [&] {
      net->set_observer(&tel->events);
      tel->events.set_sample_cap(spec.event_sample_cap);
      tel->provenance.arm(net->capacity());
    });
    std::unique_ptr<sim::FaultModel> fault = spans.time(
        "sim.fault.begin_s", [&] { return begin_faults(spec, *net, seeds.adversary); });
    const std::uint32_t source = pick_source(spec, *net, seeds.rng);
    spans.time("obs.attach_s", [&] { tel->provenance.note_seed(source); });

    core::BroadcastReport report = spans.time(
        "core.algorithm_s", [&] { return algo.run(*net, source, spec, fault.get(), tel.get()); });
    const obs::SpreadMetrics sm =
        spans.time("obs.spread_metrics_s", [&] { return obs::spread_metrics(tel->provenance); });
    report.spread_depth = static_cast<double>(sm.depth);
    report.direct_share = sm.direct_share;
    first_informs += sm.informed > 0 ? sm.informed - 1 : 0;
    spans.time("sim.network.teardown_s", [&] {
      fault.reset();
      net.reset();
    });
    result.reports[t] = std::move(report);
    result.telemetry[t] = std::move(tel);
  }
  spans.time("runner.aggregate_s", [&] {
    for (const core::BroadcastReport& r : result.reports) result.aggregate.add(r);
  });
  bytes_report = spans.time("runner.report_s", [&] {
    return count_bytes([&](std::ostream& os) { runner::write_scenario_json(os, result); });
  });
  const std::vector<const obs::Telemetry*> views = result.telemetry_views();
  for (const Export& e : kExports) {
    bytes_export[e.name] = spans.time(std::string("obs.export.") + e.name + "_s", [&] {
      if ((spec.*e.path).empty()) return std::uint64_t{0};  // not configured: skipped
      return count_bytes([&](std::ostream& os) { e.write(os, views, obs::ExportOptions{}); });
    });
  }
  out.wall_s = seconds_since(wall0);

  // Outside the traced wall: the same trials with telemetry = nullptr, for
  // obs.inline_s and for the telemetry-never-alters-trajectories check.
  std::vector<core::BroadcastReport> detached_reports;
  for (unsigned t = 0; detached && t < spec.trials; ++t) {
    TrialSeeds seeds = trial_seeds(spec, t);
    sim::Network net(network_options(spec, seeds.network));
    std::unique_ptr<sim::FaultModel> fault = begin_faults(spec, net, seeds.adversary);
    const std::uint32_t source = pick_source(spec, net, seeds.rng);
    const Clock::time_point t0 = Clock::now();
    detached_reports.push_back(algo.run(net, source, spec, fault.get(), nullptr));
    detached_algorithm_s.push_back(seconds_since(t0));
  }

  // Output checks on the traced execution.
  for (unsigned t = 0; t < spec.trials; ++t) {
    const core::BroadcastReport& r = result.reports[t];
    bool ok = check_report(spec, t, r, checks);
    ok = check_rounds(spec, t, r, *result.telemetry[t], checks) && ok;
    ok = check_reference(spec, t, r, reference, "traced report differs from the reference",
                         checks) && ok;
    if (t < detached_reports.size() && !same_report(detached_reports[t], r, false)) {
      checks.fail(spec.name + " trial " + std::to_string(t) +
                  ": report without telemetry differs from the traced report");
      ok = false;
    }
    ++checks.trials;
    if (!ok) ++checks.failed;
  }

  // Per-round engine clocks, dense/sparse split, and per-phase attribution.
  Metrics& m = out.layer;
  const double sparse_below = static_cast<double>(spec.n) / 100.0;
  double phase_s[3] = {0, 0, 0};
  double dense_s = 0.0;
  double sparse_s = 0.0;
  std::uint64_t dense_contacts = 0;
  std::uint64_t rounds = 0;
  std::uint64_t sparse_rounds = 0;
  std::uint64_t contacts = 0;
  std::uint64_t loss_drops = 0;
  std::uint64_t payload = 0;
  std::map<std::string, double> phase_rounds;
  std::map<std::string, double> phase_engine_s;
  for (unsigned t = 0; t < spec.trials; ++t) {
    const std::vector<obs::RoundRecord>& recs = result.telemetry[t]->rounds.records();
    std::vector<double> round_s(recs.size(), 0.0);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const obs::RoundRecord& rec = recs[i];
      const double p1 = 1e-9 * static_cast<double>(rec.phase1_ns);
      const double p2 = 1e-9 * static_cast<double>(rec.phase2_ns);
      const double p3 = 1e-9 * static_cast<double>(rec.phase3_ns);
      phase_s[0] += p1;
      phase_s[1] += p2;
      phase_s[2] += p3;
      round_s[i] = p1 + p2 + p3;
      ++rounds;
      contacts += rec.connections;
      loss_drops += rec.loss_drops;
      if (static_cast<double>(rec.initiators) < sparse_below) {
        ++sparse_rounds;
        sparse_s += round_s[i];
      } else {
        dense_s += round_s[i];
        dense_contacts += rec.connections;
      }
    }
    std::size_t cursor = 0;
    for (const core::PhaseBreakdown& pb : result.reports[t].phases) {
      const std::string slot = phase_slot(pb.name);
      double engine_s = 0.0;
      for (std::uint64_t k = 0; k < pb.rounds && cursor < round_s.size(); ++k) {
        engine_s += round_s[cursor++];
      }
      phase_rounds[slot] += static_cast<double>(pb.rounds);
      phase_engine_s[slot] += engine_s;
    }
    payload += result.reports[t].stats.total.payload_messages;
  }
  // Shares of the engine's phase time, so a phase or round class a workload
  // never enters reads 0 as a share rather than as a constant time.
  const double engine_s = phase_s[0] + phase_s[1] + phase_s[2];
  const auto share = [engine_s](double secs) { return engine_s > 0 ? secs / engine_s : 0.0; };
  for (const char* p : kPhaseNames) {
    m[std::string("core.phase.") + p + ".rounds"] = phase_rounds[p];
    m[std::string("core.phase.") + p + ".engine_share"] = share(phase_engine_s[p]);
  }
  // Every span is a metric under its own name.
  for (const auto& [name, secs] : spans.seconds()) m[name] = secs;
  m["sim.engine.phase1_s"] = phase_s[0];
  m["sim.engine.phase2_s"] = phase_s[1];
  m["sim.engine.phase3_s"] = phase_s[2];
  m["sim.engine.rounds"] = static_cast<double>(rounds);
  m["sim.engine.contacts"] = static_cast<double>(contacts);
  m["sim.engine.ns_per_contact"] =
      dense_contacts > 0 ? 1e9 * dense_s / static_cast<double>(dense_contacts) : 0.0;
  m["sim.engine.sparse_rounds"] = static_cast<double>(sparse_rounds);
  m["sim.engine.sparse_share"] = share(sparse_s);
  m["sim.fault.loss_drops"] = static_cast<double>(loss_drops);
  m["core.between_rounds_s"] = spans.get("core.algorithm_s") - engine_s;
  m["core.useful_delivery_share"] =
      payload > 0 ? static_cast<double>(first_informs) / static_cast<double>(payload) : 0.0;
  double detached_s = 0.0;
  for (double s : detached_algorithm_s) detached_s += s;
  m["obs.inline_s"] = detached ? spans.get("core.algorithm_s") - detached_s : 0.0;
  for (const Export& e : kExports) {
    m[std::string("obs.export.") + e.name + "_bytes"] = static_cast<double>(bytes_export[e.name]);
  }
  m["runner.report_bytes"] = static_cast<double>(bytes_report);
  m["runner.unattributed_s"] = out.wall_s - spans.total();
  m["trace.wall_s"] = out.wall_s;
  out.reports = std::move(result.reports);
  out.aggregate = result.aggregate;
  return out;
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--tiny" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = runner::parse_count("seed", value, 0, ~std::uint64_t{0});
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(runner::parse_count("seconds", value, 1, 3600));
    } else if (arg == "--trace") {
      o.trace = runner::parse_count("trace", value, 0, 1) == 1;
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else {
      throw runner::ScenarioError("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) throw runner::ScenarioError("--workload is required");
  return o;
}

/// Repeats `rep` while the budget lasts: at least `min_reps` times, then
/// only while another repetition of the median length still fits.
template <class Rep>
void repeat_for(double budget_s, int min_reps, Rep&& rep) {
  const Clock::time_point start = Clock::now();
  std::vector<double> lengths;
  while (true) {
    const Clock::time_point t0 = Clock::now();
    rep();
    lengths.push_back(seconds_since(t0));
    const int done = static_cast<int>(lengths.size());
    if (done >= min_reps && seconds_since(start) + median(lengths) > budget_s) break;
  }
}

/// Peak RSS of this process in MB (10^6 bytes).
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Unit of every metric the driver prints; run.py matches these against
/// BENCHMARK.json.
std::string unit_of(const std::string& name) {
  static const std::map<std::string, std::string> kUnits = {
      {"contacts_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"rounds", "rounds"},
      {"msgs_per_node", "msgs/node"},
      {"bits_per_node", "bits/node"},
      {"sim.engine.ns_per_contact", "ns"},
      {"trace.overhead", "x"},
      {"host.effective_parallelism", "x"},
  };
  if (const auto it = kUnits.find(name); it != kUnits.end()) return it->second;
  if (ends_with(name, "_share")) return "share";
  if (ends_with(name, "_bytes")) return "B";
  if (ends_with(name, "_s")) return "s";
  return "count";
}

void write_samples(runner::JsonWriter& w, std::string_view name,
                   const std::vector<double>& samples) {
  w.key(name).begin_array();
  for (double s : samples) w.value(s);
  w.end_array();
}

int run(const Options& opt) {
  const runner::ScenarioSpec spec = make_spec(opt.workload, opt.seed, opt.tiny);
  Checks checks;
  const HostCalibration host = calibrate_host();

  Metrics metrics;
  std::vector<double> scenario_s;
  std::vector<double> contacts_per_s;
  std::vector<double> setup;
  std::vector<double> traced_wall;
  std::vector<Metrics> layers;
  Reference reference;
  analysis::ReportAggregate aggregate;
  const auto untraced_rep = [&] {
    UntracedRun r = run_untraced(spec, reference.empty() ? nullptr : &reference, checks);
    scenario_s.push_back(r.scenario_s);
    contacts_per_s.push_back(static_cast<double>(r.connections) / r.run_s);
    if (reference.empty()) reference = std::move(r.reports);
  };
  if (!opt.trace) {
    constexpr double kSetupSliceS = 0.3;
    sample_setup(spec, kSetupSliceS, setup);
    // One traced pass first: it warms the caches, runs the per-round checks,
    // and fixes the reference every timed execution must reproduce exactly.
    TracedRun traced = run_traced(spec, nullptr, false, checks);
    reference = std::move(traced.reports);
    aggregate = traced.aggregate;
    repeat_for(opt.seconds, 3, [&] {
      untraced_rep();
      sample_setup(spec, kSetupSliceS, setup);
    });
  } else {
    repeat_for(opt.seconds / 2, 2, untraced_rep);
    repeat_for(opt.seconds / 2, 1, [&] {
      TracedRun r = run_traced(spec, &reference, true, checks);
      traced_wall.push_back(r.wall_s);
      layers.push_back(std::move(r.layer));
    });
  }

  const double ok_share =
      checks.trials > 0
          ? 1.0 - static_cast<double>(checks.failed) / static_cast<double>(checks.trials)
          : 0.0;
  if (!opt.trace) {
    metrics["scenario_s"] = median(scenario_s);
    metrics["contacts_per_s"] = median(contacts_per_s);
    metrics["setup_s"] = median(setup);
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["trial_ok_share"] = ok_share;
    metrics["rounds"] = aggregate.rounds.mean();
    metrics["msgs_per_node"] = aggregate.payload_per_node.mean();
    metrics["bits_per_node"] = aggregate.bits_per_node.mean();
  } else {
    for (const auto& [name, value] : layers.front()) {
      std::vector<double> v;
      v.reserve(layers.size());
      for (const Metrics& l : layers) v.push_back(l.at(name));
      metrics[name] = median(v);
    }
    metrics["trace.overhead"] = median(traced_wall) / median(scenario_s);
    metrics["host.spin_s"] = host.spin_s;
    metrics["host.effective_parallelism"] = host.effective_parallelism;
  }

  runner::JsonWriter w(std::cout, true);
  w.begin_object();
  w.kv("workload", spec.name);
  w.kv("seed", spec.seed);
  w.kv("n", spec.n);
  w.kv("trials", std::uint64_t{spec.trials});
  w.kv("trace", opt.trace);
  w.kv("checked_trials", checks.trials);
  w.kv("failed_trials", checks.failed);
  w.key("check_failures").begin_array();
  for (const std::string& msg : checks.messages) w.value(msg);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, value] : metrics) {
    w.key(name).begin_object();
    w.kv("value", value);
    w.kv("unit", unit_of(name));
    w.end_object();
  }
  w.end_object();
  w.key("host").begin_object();
  w.kv("spin_s", host.spin_s);
  w.kv("effective_parallelism", host.effective_parallelism);
  w.kv("hardware_threads", std::uint64_t{host.threads});
  w.end_object();
  w.key("samples").begin_object();
  write_samples(w, "scenario_s", scenario_s);
  write_samples(w, "contacts_per_s", contacts_per_s);
  write_samples(w, "setup_s", setup);
  write_samples(w, "traced_wall_s", traced_wall);
  w.end_object();
  w.end_object();
  std::cout.flush();
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
