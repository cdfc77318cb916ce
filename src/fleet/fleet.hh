/**
 * @file
 * Multi-chip fleet simulation: the datacenter layer above the chip.
 *
 * A Fleet instantiates N independently variation-sampled chips — each
 * with its own calibrated ECC-guided voltage control system, crash
 * recovery manager and (optionally) fault injector — and drives them
 * against a shared open-loop JobQueue. Time advances in fixed
 * scheduling slices:
 *
 *  1. jobs that arrived by the slice start join the pending queue
 *     (plus any jobs requeued off abandoned cores);
 *  2. on its cadence, the PowerCapGovernor reads each chip's mean
 *     power over the interval and redistributes the per-chip caps;
 *  3. the Scheduler places pending jobs one at a time onto free cores,
 *     seeing live ECC telemetry: per-core safe undervolt headroom
 *     (nominal - setpoint, what the control loop has earned) and a
 *     decaying risk score fed by correctable bursts and recoveries;
 *  4. every node advances its Simulator by one slice on ExperimentPool
 *     workers — one chip per task, no shared mutable state — then the
 *     slice's completions, requeues and risk updates are folded in
 *     node order.
 *
 * Robustness rides on the same loop. With health enabled, each node
 * steps the FSM both fleets share (HealthConfig::step, fed the slice's
 * recoveries) at the end of advance() and drains its jobs on a
 * quarantine edge. With chaos armed, the serial phase fans correlated
 * events out to member chips before placement and, after the merge,
 * credits the fleet's DomainLedger (the blast-radius ledger both
 * fleets use) from per-node deltas.
 *
 * All cross-node decisions (arrivals, placement, capping, merges) run
 * serially between slices, and each chip's stochastic state comes from
 * its own seed, mix64(fleet seed, chip index) — so a fleet run is
 * byte-identical for every worker-thread count.
 */

#ifndef VSPEC_FLEET_FLEET_HH
#define VSPEC_FLEET_FLEET_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "fleet/fleet_metrics.hh"
#include "fleet/job.hh"
#include "fleet/power_governor.hh"
#include "fleet/scheduler.hh"
#include "platform/chip.hh"
#include "platform/experiment_pool.hh"
#include "platform/harness.hh"
#include "platform/simulator.hh"
#include "power/energy.hh"
#include "resilience/fault_injector.hh"
#include "resilience/fleet_chaos.hh"
#include "resilience/recovery_manager.hh"

namespace vspec
{

struct FleetConfig
{
    /** Chips in the fleet, each an independently sampled die. */
    unsigned numChips = 4;
    /**
     * Per-chip configuration template; each chip's seed is replaced by
     * mix64(seed, chip index).
     */
    ChipConfig chip;
    /** Master seed for chip sampling (the job stream has its own). */
    std::uint64_t seed = 0xF1EE7ULL;

    /**
     * Heterogeneous protection tiers: when non-empty, chip i overrides
     * the template's eccScheme with nodeSchemes[i % size]. Strong
     * (multi-bit) codes on critical-serving nodes earn deeper floors;
     * cheap SECDED stays on the error-tolerant batch pool. Empty (the
     * default) keeps the fleet homogeneous on chip.eccScheme.
     */
    std::vector<EccScheme> nodeSchemes;

    /**
     * Service-time stretch per extra decode-latency cycle a codec
     * costs relative to the Hamming baseline (fractional; feeds
     * throughput accounting). A node running a tier with decode
     * latency L serves each job in serviceTime * (1 + (L - L_hamming)
     * * this). The Hamming factor is exactly 1.0 (baseline untouched);
     * Hsiao's shallower decode lands slightly below 1, BCH above.
     */
    double eccLatencyServiceWeight = 0.004;

    /**
     * Heterogeneous memory configs: when non-empty, chip i gets
     * nodeMemDomains[i % size] as its mem-domain list (possibly an
     * empty entry, meaning "this tier has no undervolted memory").
     * Empty (the default) leaves every chip with the template's
     * memDomains — normally none.
     */
    std::vector<std::vector<MemDomainConfig>> nodeMemDomains;

    /**
     * Service-time stretch per unit of relative mem access-latency
     * growth: a node whose memory domains run (on average) at
     * accessLatencyNs(v) = r * accessLatencyNs(nominal) serves each
     * job in serviceTime * (1 + (r - 1) * this). Nodes without mem
     * domains have a factor of exactly 1.0 (skip-multiply, baseline
     * arithmetic untouched).
     */
    double memLatencyServiceWeight = 0.02;

    /** Scheduling quantum (s): arrivals, placement, merges. */
    Seconds slice = 0.05;
    /** Simulator tick within a slice (s). */
    Seconds tick = 2e-3;

    SchedulerPolicy policy = SchedulerPolicy::roundRobin;
    /** Margin-aware: deepest free cores withheld from batch jobs. */
    unsigned reserveForCritical = 2;
    /** Risk-aware: critical jobs refuse cores scoring above this. */
    double riskThreshold = 5.0;

    JobQueue::Config jobs;
    PowerCapGovernor::Config governor;
    RecoveryManager::Config recovery;
    /** All-zero rates leave the injector unarmed. */
    FaultInjector::Config faults;
    /**
     * Correlated failure-domain events (shared-rail droops fanned out
     * to member chips' PDNs, thermal excursions on member mem
     * domains); inert by default. DUE storms are a scale-path event —
     * the cold path's per-chip FaultInjector covers chip-level DUEs.
     */
    FleetChaosConfig chaos;
    /** Chip health lifecycle, driven by the windowed recovery rate:
     *  quarantine (drain via the requeue path), self-test at nominal
     *  Vdd, probationary re-admission. Disabled by default. */
    HealthConfig health;

    /** Benchmark-phase length of the workload a resident job runs. */
    Seconds jobPhaseSeconds = 1.0;

    /**
     * Traffic sampling fidelity for every node's Simulator.
     * Chip-batched mode aggregates each chip's per-tick weak-line draws
     * into single draws (see common/sampling.hh) — same statistics,
     * different RNG sequence, so the default stays exact for
     * byte-compatibility with existing campaign outputs. Calibration
     * always runs the exact sweeps.
     */
    SamplingMode sampling = SamplingMode::exact;

    /**
     * Opt-in latency validation: record completions into the exact
     * full-resolution linear histogram alongside the quantile sketch,
     * so a cross-check run can compare exactLatencyQuantile against
     * the sketch estimate. Off by default (sketch only).
     */
    bool exactLatencyValidation = false;

    /** Risk-score decay time constant (s). */
    Seconds riskTau = 5.0;
    /** Risk added per workload correctable event. */
    double riskPerError = 0.5;
    /** Risk added per crash recovery. */
    double riskPerRecovery = 10.0;
    /** A recovery taints the core for this long ("recent"). */
    Seconds riskWindow = 10.0;
};

/**
 * One chip of the fleet with its control, recovery and job state. The
 * fleet mutates nodes only from the serial phase; advance() is the only
 * entry the pool workers call, and it touches nothing outside the node.
 */
class FleetNode
{
  public:
    FleetNode(const FleetConfig &config, unsigned index);

    unsigned index() const { return nodeIndex; }
    Chip &chip() { return *chip_; }
    const Chip &chip() const { return *chip_; }
    Simulator &simulator() { return *sim; }
    const RecoveryManager &recovery() const { return *recoveryMgr; }
    const FaultInjector *faultInjector() const { return injector.get(); }
    const FleetMetrics &metrics() const { return shard; }
    /** The designated line of every voltage domain, from calibration. */
    const std::vector<WeakLineTarget> &calibrationTargets() const
    {
        return setup.targets;
    }

    /** Cores the scheduler may ever use (not abandoned). */
    unsigned schedulableCores() const;
    unsigned busyCores() const;
    double riskScore(unsigned core) const;
    /** Safe undervolt headroom the control loop has earned (mV). */
    Millivolt headroom(unsigned core) const;

    /**
     * Bind the job-class table (owned by the fleet's JobQueue); must
     * happen before the first placeJob().
     */
    void setClassTable(const std::vector<JobClass> &classes)
    {
        classTable = &classes;
    }

    /** Bind a job to a free core and give the core its workload. */
    void placeJob(unsigned core, const Job &job);

    /** Advance the chip by one slice (called from pool workers). */
    void advance(Seconds slice);

    /** Jobs bumped off abandoned cores last slice, oldest first. */
    std::vector<Job> takeRequeued();

    /** Health FSM state (healthy unless FleetConfig::health.enabled). */
    ChipHealth health() const { return health_; }
    /** True while the node takes no placements (health FSM). */
    bool offline() const { return !healthSchedulable(health_); }
    std::uint64_t quarantines() const { return quarantines_; }
    std::uint64_t readmissions() const { return readmissions_; }
    /** Core-seconds this node has spent quarantined/self-testing. */
    Seconds offlineTime() const { return offlineTime_; }
    /** Core-seconds of in-flight work drained at quarantine entry. */
    Seconds drainedWork() const { return drainedWork_; }

    /** Jobs awaiting pickup by the fleet driver (report accounting:
     *  a job bumped off an abandoned core in the final slice is still
     *  in flight, not lost). */
    const std::vector<Job> &pendingRequeues() const { return requeued; }

    /**
     * Mean chip power since the last call plus the accounted span the
     * mean covers (governor telemetry; a partial span tells the
     * governor not to seed its demand EWMA from this measurement).
     */
    PowerCapGovernor::Measurement drainIntervalPower();

    /** Append this node's per-core status rows, in core order. */
    void appendStatus(std::vector<CoreStatus> &out,
                      bool chip_throttled) const;

    Joule chipEnergy() const { return sim->chipEnergy().energy(); }

    /**
     * Live service-time multiplier from the node's memory domains'
     * current latency stretch (1.0 when the node has none).
     */
    double memServiceFactor() const;
    /** Sum of mem-domain energy accounts (J; 0 without domains). */
    Joule memEnergy() const;
    /** Sum of mem-domain DUE recoveries. */
    std::uint64_t memRecoveries() const;
    /** Sum of mem-domain workload correctable events. */
    std::uint64_t memCorrectableEvents() const;

    /**
     * Serialize the node's job slots, requeue list, metrics shard,
     * governor power mark and the full chip simulation (via
     * Simulator::snapshot). loadState expects a freshly constructed
     * node with the class table bound: it re-binds each resident job's
     * benchmark workload before overlaying the simulator state, so the
     * core's restored workloadStart lines up with the re-created
     * workload object.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    struct CoreSlot
    {
        std::optional<Job> job;
        /** Service time still owed (stretched by recovery rollbacks). */
        Seconds remaining = 0.0;
        /** Core EnergyAccount reading when the job was placed (J). */
        Joule energyMark = 0.0;
        double risk = 0.0;
        Seconds lastRecoveryAt = -1e30;
        std::uint64_t seenErrors = 0;
        std::uint64_t seenRecoveries = 0;
        Seconds seenLostTime = 0.0;
    };

    const FleetConfig *cfg;
    unsigned nodeIndex;
    const std::vector<JobClass> *classTable = nullptr;

    const JobClass &classTableEntry(const Job &job) const;

    std::unique_ptr<Chip> chip_;
    std::unique_ptr<Simulator> sim;
    HardwareSpeculationSetup setup;
    std::unique_ptr<RecoveryManager> recoveryMgr;
    std::unique_ptr<FaultInjector> injector;

    std::vector<CoreSlot> slots;
    std::vector<Job> requeued;
    FleetMetrics shard;
    EnergyAccount::Snapshot powerMark;

    /** Health FSM: state, windowed recovery-rate EWMA and the phase
     *  timer, advanced node-locally at the end of each advance(). */
    ChipHealth health_ = ChipHealth::healthy;
    double recoveryWindow_ = 0.0;
    Seconds healthTimer_ = 0.0;
    std::uint64_t quarantines_ = 0;
    std::uint64_t readmissions_ = 0;
    Seconds offlineTime_ = 0.0;
    Seconds drainedWork_ = 0.0;

    /** One health-FSM step fed this slice's recovery count; a
     *  quarantine drains resident jobs into the requeue buffer. */
    void advanceHealth(Seconds slice, std::uint64_t slice_recoveries);

    /**
     * Per-job service-time multiplier of this node's codec tier
     * (1 + extra decode cycles * eccLatencyServiceWeight); exactly
     * 1.0 on the Hamming baseline, where placeJob skips the multiply
     * so default arithmetic is untouched.
     */
    double eccServiceFactor = 1.0;
};

/** Fleet-wide results of a run. */
struct FleetReport
{
    Seconds simulated = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t completedCritical = 0;
    std::uint64_t requeued = 0;
    std::uint64_t pendingAtEnd = 0;
    std::uint64_t runningAtEnd = 0;
    /** Late completions plus jobs still queued past their deadline. */
    std::uint64_t slaViolations = 0;
    double throughputPerSec = 0.0;
    Seconds meanLatency = 0.0;
    Seconds p50Latency = 0.0;
    Seconds p99Latency = 0.0;
    Joule fleetEnergy = 0.0;
    /**
     * Mean energy drawn by a completed job's cores while it was
     * resident (J) — the marginal cost of a job, excluding the fleet's
     * placement-independent idle draw.
     */
    Joule energyPerJob = 0.0;
    Watt meanFleetPower = 0.0;
    /** Mean over chips of the recovery manager's availability. */
    double availability = 1.0;
    std::uint64_t recoveries = 0;
    unsigned abandonedCores = 0;
    std::uint64_t throttleEpisodes = 0;
    std::uint64_t injectedBitFlips = 0;
    std::uint64_t injectedDues = 0;
    /** Energy drawn by the fleet's memory domains (J). */
    Joule memEnergy = 0.0;
    /** Mem-domain DUE recoveries (rail-to-nominal re-fetches). */
    std::uint64_t memRecoveries = 0;
    /** Mem-domain workload correctable events. */
    std::uint64_t memCorrectable = 0;

    /** Health-lifecycle accounting (0 when the FSM is disabled). */
    std::uint64_t quarantines = 0;
    std::uint64_t readmissions = 0;
    /** Chips quarantined or self-testing when the report was taken. */
    unsigned offlineChipsAtEnd = 0;
    /** Core-seconds of in-flight work drained off quarantining chips
     *  and requeued over healthy capacity. */
    Seconds drainedCoreSeconds = 0.0;
    /** Deadline-aware retry/hedging accounting. */
    std::uint64_t retries = 0;
    std::uint64_t hedgedJobs = 0;
    std::uint64_t watchdogForced = 0;
    /** Jobs still in the retry queue when the report was taken
     *  (included in pendingAtEnd). */
    std::uint64_t inRetryAtEnd = 0;

    /** Blast-radius attribution of one failure domain: counts
     *  credited while the domain had an active correlated event. */
    struct DomainImpact
    {
        FailureDomainKind kind = FailureDomainKind::railGroup;
        unsigned domain = 0;
        std::uint64_t events = 0;
        std::uint64_t dues = 0;
        std::uint64_t quarantines = 0;
        std::uint64_t slaMisses = 0;
        Seconds offlineCoreSeconds = 0.0;
    };
    /** One row per failure domain that saw at least one event
     *  (empty when chaos is inert). */
    std::vector<DomainImpact> domainImpact;
};

/**
 * Blast-radius attribution over a contiguous chip range: per failure-
 * domain kind, the DUEs (recoveries on the cold path), quarantines and
 * offline core-seconds credited while the domain's event was active.
 * Chips are consecutive, so a range's domains of each kind are a
 * contiguous id range too; the ledger holds just that range. The cold
 * Fleet keeps one ledger over the whole fleet, the hot ShardedFleet
 * one per shard, folded in shard order at report time.
 */
class DomainLedger
{
  public:
    using Misses = std::array<std::vector<std::uint64_t>,
                              kNumFailureDomainKinds>;

    /** Size the ledger to the domains of chips [chip_lo, chip_hi). */
    void cover(const FleetFaultInjector &chaos, unsigned chip_lo,
               unsigned chip_hi);
    /** Credit every kind with an active event over @p chip (a chip of
     *  the covered range). */
    void credit(const FleetFaultInjector &chaos, unsigned chip,
                std::uint64_t dues, std::uint64_t quarantines,
                Seconds offline);
    /** Add @p part's rows into this ledger, which covers it. */
    void fold(const DomainLedger &part);
    /**
     * Append one DomainImpact row per domain with any action, in kind
     * then domain order. @p misses (fleet-wide domain ids) supplies the
     * SLA misses; null credits none.
     */
    void appendRows(const FleetFaultInjector &chaos, const Misses *misses,
                    std::vector<FleetReport::DomainImpact> &out) const;

    /** Per kind: dues, quarantines, then offline core-seconds. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    struct Span
    {
        /** Fleet-wide id of the first covered domain. */
        unsigned base = 0;
        std::vector<std::uint64_t> dues;
        std::vector<std::uint64_t> quarantines;
        std::vector<double> offline;
    };
    std::array<Span, kNumFailureDomainKinds> spans;
};

class Fleet
{
  public:
    explicit Fleet(const FleetConfig &config);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Advance the fleet by @p duration, building the nodes on the pool
     * on first call. May be called repeatedly; time accumulates.
     */
    void run(Seconds duration, ExperimentPool &pool);

    FleetReport report() const;

    Seconds now() const { return now_; }
    unsigned numChips() const { return unsigned(nodes.size()); }
    FleetNode &node(unsigned i) { return *nodes.at(i); }
    const FleetNode &node(unsigned i) const { return *nodes.at(i); }
    const PowerCapGovernor &governor() const { return governor_; }

    const FleetConfig &config() const { return cfg; }

    /**
     * Serialize the whole fleet: job-stream position, scheduler state,
     * governor caps, pending queue, slice counters and every node.
     * restore() rebuilds the nodes on the pool first (deterministic
     * reconstruction from the fleet seed), then overlays the snapshot;
     * a restored fleet resumed with run() is bit-identical to the
     * uninterrupted run at slice granularity, for any worker-thread
     * count. Snapshot a fleet only after run() has built its nodes.
     */
    void snapshot(StateWriter &w) const;
    void restore(StateReader &r, ExperimentPool &pool);

  private:
    FleetConfig cfg;
    JobQueue queue;
    std::unique_ptr<Scheduler> scheduler;
    PowerCapGovernor governor_;

    std::vector<std::unique_ptr<FleetNode>> nodes;
    std::deque<Job> pending;

    Seconds now_ = 0.0;
    std::uint64_t sliceIndex = 0;
    std::uint64_t submitted = 0;
    std::uint64_t requeueCount = 0;

    /** Correlated-event injector; null when the config is inert. */
    std::unique_ptr<FleetFaultInjector> chaos_;
    /** Nodes whose mem arrays currently run at excursion temperature. */
    std::vector<bool> thermalHot_;
    /** Blast-radius attribution over the whole fleet, credited
     *  serially from per-node counter deltas. */
    DomainLedger ledger_;
    /** Per-node counter baselines for the delta attribution. */
    std::vector<std::uint64_t> seenRecoveries_;
    std::vector<std::uint64_t> seenQuarantines_;

    void buildNodes(ExperimentPool &pool);
    void placePending();
    std::vector<CoreStatus> fleetStatus() const;
    /** Serial phase: advance the event clock and fan effects out to
     *  member chips (PDN transients, mem-array temperatures). */
    void applyChaos();
    /** Serial phase: credit domain attribution from node deltas. */
    void creditDomains();
};

} // namespace vspec

#endif // VSPEC_FLEET_FLEET_HH
