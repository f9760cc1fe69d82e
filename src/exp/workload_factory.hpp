// Experiment construction: turns an ExperimentConfig (Table I settings plus
// sweep knobs) into a ready-to-run world - topology, routing, landmarks,
// capacities, grid system, submitted workflows and a metrics collector.
#pragma once

#include <memory>
#include <string>

#include "core/grid_system.hpp"
#include "dag/generator.hpp"
#include "exp/metrics.hpp"
#include "exp/trace_importer.hpp"
#include "net/landmark.hpp"
#include "sim/fault_plan.hpp"

namespace dpjit::exp {

/// Flash-crowd arrival process (extension; see ExperimentConfig::bursts).
struct BurstArrivals {
  /// Number of submission waves; 0 disables the burst model.
  int wave_count = 0;
  /// Start of the first wave (seconds of simulated time).
  double first_wave_s = 1800.0;
  /// Spacing between wave openings.
  double period_s = 4.0 * 3600.0;
  /// Each home's submissions land uniformly inside [open, open + width].
  double width_s = 900.0;
};

/// Trace-driven workload (see ExperimentConfig::trace): jobs come from a
/// parsed SWF/GWA trace — replayed directly, or refitted and synthesized at
/// any scale — instead of the closed/open/burst synthetic models. Each trace
/// job expands into one workflow submitted at its (scaled) arrival time from
/// the home node `owner % home_count`, with the job's processor count
/// steering the workflow's task count and its runtime steering task loads.
struct TraceConfig {
  /// Inline trace text (takes precedence over `path`). Scenario transforms
  /// must use this: transforms are pure, so no filesystem reads.
  std::string text;
  /// Trace file to load (scenario_runner --trace=<file> sets this).
  std::string path;
  TraceFormat format = TraceFormat::kAuto;

  /// false = replay the trace's jobs one-for-one. true = fit Guazzone-style
  /// distributions (fit_trace) and synthesize `synth_jobs` jobs over
  /// `synth_span_s` — the path to 1M-task open streams from a small sample.
  bool fitted = false;
  /// Synthetic job count (fitted mode); 0 = same count as the trace.
  std::size_t synth_jobs = 0;
  /// Synthetic arrival span in seconds (fitted mode); 0 = the trace's span.
  double synth_span_s = 0.0;

  /// Multiplies replayed arrival times (< 1 compresses the trace into a
  /// heavier-traffic burst; applied after fitting/synthesis too).
  double time_scale = 1.0;
  /// Converts a job's runtime into per-task load: the load range is centered
  /// on runtime_s * this many MI per second, spread +/- 50%.
  double load_mi_per_s = 50.0;
  /// Task-count bounds a job's processor count is clamped into. 0 for the
  /// max = the workflow generator's max_tasks.
  int min_tasks_per_job = 2;
  int max_tasks_per_job = 0;
  /// Hard cap on jobs submitted (0 = all). The conformance preset sets this
  /// so trace scenarios digest-check at sub-second scale.
  std::size_t max_jobs = 0;
  /// false = a job's home node is owner % home_count, preserving per-owner
  /// submission locality (replay). true = hash (owner, id) over all homes —
  /// for fitted open streams whose synthetic owner pool is far smaller than
  /// the node set, where locality would pile every job onto a handful of
  /// homes.
  bool scatter_owners = false;

  [[nodiscard]] bool enabled() const { return !text.empty() || !path.empty(); }
};

/// One entry of a mixed structured workload (see ExperimentConfig::
/// workload_mix): a workflow family plus its sampling weight.
struct WorkloadMixEntry {
  /// "random" (the GeneratorParams family) or a dag template:
  /// "montage", "fork-join", "pipeline", "diamond".
  std::string family = "random";
  double weight = 1.0;
  /// Template scale: montage width / fork-join width / pipeline length
  /// (ignored by "random" and "diamond").
  int size = 6;
};

/// Everything a single simulation run needs (defaults = paper Section IV.A).
struct ExperimentConfig {
  /// One of core::all_algorithms().
  std::string algorithm = "dsmf";
  /// System scale n (paper: 200 - 2000; headline experiments use 1000).
  int nodes = 1000;
  /// Load factor: workflows submitted per home node (paper: 1 - 8, default 3).
  int workflows_per_node = 3;
  /// Workflow shape/weights (paper Table I; data defaults to the CCR~0.16 case).
  dag::GeneratorParams workflow;
  /// Heterogeneous capacities drawn uniformly from this set (Table I).
  std::vector<double> capacity_choices = {1.0, 2.0, 4.0, 8.0, 16.0};
  /// WAN parameters (node_count is overwritten with `nodes`).
  net::TopologyParams topology;
  /// Scheduling/gossip/churn knobs.
  core::SystemConfig system;
  /// Churn convenience: > 0 switches to the dynamic environment with
  /// stable_count = nodes/2 homes (paper Section IV.B).
  double dynamic_factor = 0.0;
  /// Extension: reschedule tasks lost to churn.
  bool reschedule = false;
  /// Ablation: max-min fair network sharing instead of the bottleneck model.
  bool fair_sharing = false;
  /// The network mode the built world will actually run, by the build rule:
  /// build_system_config overwrites `system.fair_sharing` with the
  /// experiment-level `fair_sharing` flag, so only the latter counts. Callers
  /// inspecting an unbuilt config (scenario_runner --describe) must use THIS,
  /// not cfg.system.effective_network_mode(), which reads the flag the build
  /// discards.
  [[nodiscard]] net::NetworkMode effective_network_mode() const {
    if (system.network_mode != net::NetworkMode::kBottleneck) return system.network_mode;
    return fair_sharing ? net::NetworkMode::kFluidFair : net::NetworkMode::kBottleneck;
  }
  /// Workflow arrival process. 0 (default) = the paper's closed model: every
  /// workflow is submitted at t = 0. > 0 = open model: each home node submits
  /// its workflows one by one with exponential inter-arrival times of this
  /// mean (seconds), e.g. 3600 = on average one new workflow per hour per home.
  double mean_interarrival_s = 0.0;
  /// Flash-crowd extension: when bursts.wave_count > 0, workflow j of every
  /// home is submitted in wave j % wave_count instead of the closed/open
  /// models above (takes precedence over mean_interarrival_s).
  BurstArrivals bursts;
  /// Mixed-workload extension: when non-empty, each submitted workflow draws
  /// its family from this weighted mix instead of always using the random-DAG
  /// generator. Template task sizes derive from the `workflow` ranges.
  std::vector<WorkloadMixEntry> workload_mix;
  /// Trace-driven workload: when trace.enabled(), jobs come from an imported
  /// SWF/GWA trace (replayed or refitted+synthesized) and take precedence
  /// over the closed/open/burst/mix models above.
  TraceConfig trace;
  /// Collect metrics with the O(1)-memory StreamingMetricsCollector instead
  /// of the retaining MetricsCollector. Digested summaries are bitwise
  /// identical either way (see exp/metrics.hpp); the streaming collector
  /// additionally bounds live per-workflow state, which open-stream runs
  /// with millions of tasks need. World::metrics() (the raw-report
  /// accessor) is unavailable in this mode — use World::collector().
  bool streaming_metrics = false;
  /// Pre-sized capacity of the engine's event slab (concurrently pending
  /// events). 0 = derive from `nodes` (gossip keeps O(fanout) messages in
  /// flight per node). Purely an allocation hint; never affects results.
  std::size_t event_capacity_hint = 0;
  /// Threads for the all-pairs Routing build (0 = hardware concurrency).
  /// run_sweep forces 1 for its workers so concurrent experiments do not
  /// nest full-width pools. Never affects results (bit-identical build).
  int routing_threads = 0;
  /// Deterministic fault injection (realism scenarios): message loss and
  /// delay for the message-level gossip mode, link failure/recovery waves
  /// (with routing repair + transfer aborts), node crash/restart waves.
  /// All-zero defaults attach nothing; see sim::FaultParams.
  sim::FaultParams faults;
  std::uint64_t seed = 1;

  /// Applies the CCR presets of Figs. 9-10: load and data ranges.
  void set_load_range(double lo, double hi) {
    workflow.min_load_mi = lo;
    workflow.max_load_mi = hi;
  }
  void set_data_range(double lo, double hi) {
    workflow.min_data_mb = lo;
    workflow.max_data_mb = hi;
  }
};

/// A fully wired single run. Construction generates the world; run() submits
/// the workload and executes to the horizon.
class World {
 public:
  explicit World(const ExperimentConfig& config);

  /// Submits the configured workload (idempotent) and runs to the horizon.
  void run();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] core::GridSystem& system() { return *system_; }
  [[nodiscard]] const core::GridSystem& system() const { return *system_; }
  /// The retaining collector with its raw report/sample records. Only valid
  /// when config.streaming_metrics is false (throws std::logic_error
  /// otherwise) — summaries should go through collector(), which works with
  /// either implementation.
  [[nodiscard]] MetricsCollector& metrics();
  [[nodiscard]] const MetricsCollector& metrics() const;
  /// The configured metrics implementation behind the common interface.
  [[nodiscard]] WorkflowMetrics& collector() { return *metrics_; }
  [[nodiscard]] const WorkflowMetrics& collector() const { return *metrics_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] const net::Routing& routing() const { return routing_; }
  /// The attached fault plan; null when config.faults is all-zero.
  [[nodiscard]] const sim::FaultPlan* fault_plan() const { return faults_.get(); }
  /// Number of home nodes receiving workflows (all nodes, or the stable half
  /// under churn).
  [[nodiscard]] int home_count() const;

 private:
  void submit_workload();
  void submit_trace_workload();

  ExperimentConfig config_;
  util::Rng rng_;
  sim::Engine engine_;
  net::Topology topo_;
  net::Routing routing_;
  net::LandmarkEstimator landmarks_;
  std::unique_ptr<WorkflowMetrics> metrics_;
  /// Destroyed after system_ (declared before it): the system's gossip layer
  /// keeps a raw pointer to the plan for per-message fate draws.
  std::unique_ptr<sim::FaultPlan> faults_;
  std::unique_ptr<core::GridSystem> system_;
  bool submitted_ = false;
};

}  // namespace dpjit::exp
