/**
 * @file
 * Datacenter-scale fleet: structure-of-arrays chip shards.
 *
 * The full-simulation Fleet arms every chip with a calibrated Chip +
 * Simulator + RecoveryManager — the *cold* path: exact per-line ECC
 * accounting, tick-level rail control, fault injection. That fidelity
 * costs ~100 ms of calibration and megabytes of state per chip, which
 * caps it at tens of chips. A capacity study over 100k chips needs the
 * opposite trade: keep the fleet-level feedback structure of the paper
 * (ECC-guided rail descent, correctable-burst backoff, rare DUE
 * recovery, power capping, margin-aware placement) but compress each
 * chip to a handful of scalars stepped by a closed-form behavioral
 * model — the *hot* path.
 *
 * ShardedFleet is that hot path. The per-chip hot state lives in
 * global contiguous arrays (rail Vdd, hidden min-safe Vdd, earned rail
 * floor, descent holdoff, job-queue depth, risk score, energy
 * integral), not in per-chip objects: one slice of fleet time walks
 * each array span linearly — SoA layout, no pointer chasing, the loop
 * the hardware prefetcher wants. The arrays are cut into fixed-size
 * shards of chipsPerShard consecutive chips; each shard owns a private
 * RNG (forked from mix64(seed, shard index), drawn in chip order) and
 * a private FleetMetrics accumulator, and one ExperimentPool task
 * advances one shard. The shard cut depends only on chipsPerShard,
 * never on the worker-thread count, so a run is byte-identical for
 * every --threads value. One slice runs these phases, in this order:
 *
 *   1. serial: the chaos event clock, then traffic generation;
 *   2. parallel: the candidate pass — each arrival's session hashes
 *      to its candidate chips, filtered by health, throttle flags and
 *      risk, in fixed chunks of the arrival buffer. All three stay
 *      frozen until the shard tasks run, so every chunk reads the
 *      state the serial commit would read;
 *   3. serial: the commit — retries, then arrivals, scored against
 *      the backlogs earlier commits grew; each placed job's energy is
 *      added to the serving chip's shard, and the job is logged in
 *      commit order to that shard;
 *   4. parallel, one task per shard: record the logged completions
 *      in commit order (so the order-sensitive latency stats match
 *      recording at commit time) and count their
 *      SLA misses per failure domain; advance the chips; then write
 *      the span's governor absent flags, its governor telemetry on a
 *      measurement slice, and its online count;
 *   5. serial: fold the miss counts (integers: order-free), requeue
 *      drained work (shard order), governor update (chip order), and
 *      the audit.
 *
 * Behavioral chip model (per chip, per slice):
 *
 *   - the rail descends stepMv per slice toward floorMv while the ECC
 *     feedback stays quiet (this is the paper's speculation loop in
 *     aggregate: margin earned at runtime, not set by worst-case
 *     guardband);
 *   - correctable ECC events arrive Poisson with a rate exponential in
 *     the (rail - minSafe) margin — each chip's minSafe is an
 *     independently sampled Gaussian, so each chip earns a different
 *     equilibrium floor, exactly the per-die variation the fleet
 *     schedulers exploit;
 *   - a slice with more correctables than the tolerated band backs the
 *     rail off backoffMv and holds descent for holdSlices;
 *   - detected-uncorrectable events (much steeper exponential) trigger
 *     a recovery: backlog takes a replay penalty, the rail resets to
 *     nominal, and the chip's risk score jumps;
 *   - the chip drains its job backlog at cores_per_chip core-seconds
 *     per second and integrates power = cores * (idle + active*util) *
 *     (rail/nominal)^2 — the quadratic CMOS dividend that makes the
 *     earned margin worth scheduling toward.
 *
 * Jobs come from a TrafficGenerator (diurnal + flash-crowd + closed
 * loop, session identities over millions of users) and are committed
 * serially with session affinity and power-of-two-choices: a job's
 * session hashes to a home chip plus alternate candidates, and the
 * configured SchedulerPolicy picks among them (round-robin = pure
 * affinity, least-loaded = min backlog, margin-aware = deepest earned
 * rail for critical jobs, risk-aware = skip risky chips). Latency is
 * computed at placement from the queue-drain model (wait = backlog /
 * cores + service), so completions, SLA checks and the latency sketch
 * are deterministic and classified against the configured horizon —
 * independent of how run() chunks the campaign.
 *
 * Robustness: each chip steps the health FSM the cold Fleet runs too
 * (HealthConfig::step, fed the chip's DUEs from the SoA health arrays);
 * applyChipSlice only reacts to the edge it returns. Each shard credits
 * its own DomainLedger over its chip span, and report() folds the
 * ledgers in shard order and adds the SLA misses the shard tasks
 * charged to the serving chips' domains.
 */

#ifndef VSPEC_FLEET_SHARD_HH
#define VSPEC_FLEET_SHARD_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/sampling.hh"
#include "common/units.hh"
#include "fleet/fleet.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/power_governor.hh"
#include "fleet/scheduler.hh"
#include "fleet/traffic.hh"
#include "platform/experiment_pool.hh"
#include "resilience/fleet_chaos.hh"

namespace vspec
{

class StateWriter;
class StateReader;

/** Closed-form behavioral constants of one scale-model chip. */
struct ScaleChipModel
{
    unsigned coresPerChip = 8;
    /** Nominal rail; chips reset here after a recovery. */
    Millivolt nominalVdd = 1050.0;
    /** Hidden per-chip minimum safe Vdd ~ N(mean, sigma); the control
     *  loop never sees it, only the ECC feedback it produces. */
    Millivolt minSafeMeanMv = 880.0;
    Millivolt minSafeSigmaMv = 18.0;
    /** The policy's absolute lowest rail (safety floor). */
    Millivolt floorMv = 780.0;
    /** Per-slice descent step while ECC is quiet. */
    Millivolt stepMv = 5.0;
    /** Backoff applied on a correctable burst. */
    Millivolt backoffMv = 15.0;
    /** Slices descent is held after a backoff or recovery. */
    unsigned holdSlices = 8;
    /** Correctable event rate with the rail at minSafe (events/s). */
    double corrRateAtMinSafe = 50.0;
    /** e-folding of the correctable rate per mV of margin. */
    Millivolt corrScaleMv = 12.0;
    /** Corrections tolerated per slice before backing off. */
    unsigned toleratedCorrPerSlice = 2;
    /** DUE rate with the rail at minSafe (events/s). */
    double dueRateAtMinSafe = 0.02;
    /** e-folding of the DUE rate per mV of margin (steeper). */
    Millivolt dueScaleMv = 6.0;
    /** Core-seconds of lost + replayed work per DUE recovery. */
    Seconds recoveryPenalty = 0.25;
    Watt idlePowerPerCore = 0.6;
    /** Extra power of a fully busy core at nominal Vdd. */
    Watt activePowerPerCore = 2.4;
};

struct ScaleFleetConfig
{
    unsigned numChips = 1024;
    /**
     * Chips per shard — the parallel work grain AND the merge grain.
     * Fixed by config, never derived from the thread count, so the
     * shard cut (and therefore every RNG stream and every metrics
     * merge order) is identical for all --threads values.
     */
    unsigned chipsPerShard = 2048;
    /** Scheduling quantum (s): traffic, placement, shard advance. */
    Seconds slice = 0.1;
    /**
     * Completion-classification horizon (s): a placed job whose
     * predicted completion lands beyond it counts as pending-at-end
     * rather than completed. Fixed by config (not by where run()
     * happens to stop), so chunked and resumed campaigns classify
     * identically.
     */
    Seconds horizon = 30.0;
    std::uint64_t seed = 0xF1EE7ULL;

    SchedulerPolicy policy = SchedulerPolicy::roundRobin;
    /** Power-of-two-choices candidates probed per placement (1-4). */
    unsigned placementCandidates = 3;
    /** Risk-aware: avoid chips scoring above this. */
    double riskThreshold = 5.0;
    /** Risk-score decay time constant (s). */
    Seconds riskTau = 5.0;
    double riskPerError = 0.5;
    double riskPerRecovery = 10.0;

    /** EWMA weight of each slice's mean placement latency in the
     *  closed-loop feedback signal. */
    double latencyFeedbackAlpha = 0.3;

    ScaleChipModel chip;
    TrafficGenerator::Config traffic;
    PowerCapGovernor::Config governor;

    /** Arm the exact-histogram latency cross-check in every shard. */
    bool exactLatencyValidation = false;

    /**
     * Hot-loop sampling granularity. exact draws one Poisson pair per
     * chip per slice. chipBatched pools the chips of a shard
     * by quantized (rail - minSafe) margin each slice and draws ONE
     * pooled Poisson per event class per occupied bucket, thinning the
     * events to uniform member chips — the fleet-slice analogue of the
     * Simulator's whole-chip aggregation. Same per-chip rate model
     * evaluated at the bucket center, so the event-count distribution
     * matches to the quantization error; per-chip draw sequences (and
     * therefore exact per-chip trajectories) differ.
     */
    SamplingMode sampling = SamplingMode::exact;
    /** Margin quantization grid of the pooled buckets (mV). */
    Millivolt marginQuantMv = 1.0;

    /** Correlated failure-domain events (rail-group droops, rack DUE
     *  storms, thermal excursions); inert by default. */
    FleetChaosConfig chaos;
    /** Chip health lifecycle: quarantine, elevated-Vdd self-test,
     *  probationary re-admission. Disabled by default. */
    HealthConfig health;
    /**
     * Retry watchdog: a deferred/retried job stuck in the queue this
     * long past its arrival is force-placed on the best available chip
     * (deadline already forfeit, work still owed).
     */
    Seconds retryWatchdog = 2.0;
    /** Fraction of a hedged job's service the losing duplicate runs
     *  before cancellation; its backlog and joules still count. */
    double hedgeLoserFraction = 0.5;
    /** Run the invariant audit every N slices; 0 disables. */
    unsigned auditEverySlices = 0;

    /**
     * Cold-path template for materializeNode(): the full-simulation
     * FleetNode configuration a scale-model chip is promoted to for
     * inspection. Its seed/numChips are overridden from this config.
     */
    FleetConfig cold;
};

class ShardedFleet
{
  public:
    explicit ShardedFleet(const ScaleFleetConfig &config);

    ShardedFleet(const ShardedFleet &) = delete;
    ShardedFleet &operator=(const ShardedFleet &) = delete;

    /**
     * Advance the fleet by @p duration (a whole number of slices) on
     * the pool. May be called repeatedly; time accumulates. Chunking a
     * horizon into several calls yields the same state as one call.
     */
    void run(Seconds duration, ExperimentPool &pool);

    /** Fleet-wide results so far (same report type as the cold Fleet). */
    FleetReport report() const;

    Seconds now() const { return now_; }
    unsigned numChips() const { return cfg.numChips; }
    unsigned numShards() const { return unsigned(shards.size()); }

    /** Hot-state inspection (tests, dashboards). */
    Millivolt railMv(unsigned chip) const { return railMv_.at(chip); }
    Millivolt minSafeMv(unsigned chip) const
    {
        return minSafeMv_.at(chip);
    }
    /** Deepest rail the chip has sustained (its earned floor). */
    Millivolt earnedFloorMv(unsigned chip) const
    {
        return earnedFloorMv_.at(chip);
    }
    /** Queued work on the chip (core-seconds). */
    Seconds queueDepth(unsigned chip) const { return backlog_.at(chip); }
    double riskScore(unsigned chip) const { return risk_.at(chip); }
    /** Health FSM state of one chip. */
    ChipHealth chipHealth(unsigned chip) const { return health_.at(chip); }

    /**
     * Run the invariant audit now: no placement ever landed on
     * quarantined capacity, submitted == completed + pending +
     * in-retry, every rail inside [floor, nominal + self-test boost],
     * health states valid, backlogs and energy integrals monotone.
     * Violations (capped at 32) accumulate in auditViolations().
     * run() calls this automatically every auditEverySlices slices.
     */
    void audit();
    const std::vector<std::string> &auditViolations() const
    {
        return auditViolations_;
    }

    const PowerCapGovernor &governor() const { return governor_; }
    const TrafficGenerator &traffic() const { return traffic_; }
    const FleetMetrics &shardMetrics(unsigned shard) const
    {
        return shards.at(shard).metrics;
    }
    /** Shards folded in shard order (the report's merge). */
    FleetMetrics mergedMetrics() const;

    /** Chip i's stochastic identity: mix64(seed, i) — the same
     *  derivation the full-simulation FleetNode uses. */
    std::uint64_t chipSeed(unsigned chip) const
    {
        return mix64(cfg.seed, chip);
    }

    /**
     * Cold-path bridge: arm chip i as a full-simulation FleetNode
     * (calibrated Chip + Simulator + recovery) built from the cold
     * template and the same mix64(seed, i) identity. Expensive —
     * intended for spot inspection of individual chips, not for the
     * fleet loop. The returned node references this fleet's cold
     * config, which outlives it.
     */
    std::unique_ptr<FleetNode> materializeNode(unsigned chip) const;

    const ScaleFleetConfig &config() const { return cfg; }

    /**
     * Shard-exchange snapshot: fleet-level scalars, the traffic and
     * governor state, then one self-contained section per shard (its
     * RNG, metrics and the shard's spans of every hot array), so
     * shards serialize and restore independently. restore() expects a
     * fleet constructed from the identical config and throws
     * SnapshotError on any geometry mismatch.
     */
    void snapshot(StateWriter &w) const;
    void restore(StateReader &r);

  private:
    /** Most placement candidates one slot holds. */
    static constexpr unsigned kMaxCandidates = 4;
    /** Chip ids fit below the flag bits of a slot word. */
    static constexpr std::uint32_t kChipMask = (1u << 29) - 1;
    /** Candidate word: the chip is throttled or (risk-aware) risky. */
    static constexpr std::uint32_t kBlocked = 1u << 31;
    /** Candidate word: the chip is offline (dropped). */
    static constexpr std::uint32_t kNoCandidate = 0xFFFFFFFFu;
    /** Record word flags: completed within the horizon, completed
     *  past its deadline, a latency-critical class. */
    static constexpr std::uint32_t kCompleted = 1u << 29;
    static constexpr std::uint32_t kLate = 1u << 30;
    static constexpr std::uint32_t kCritical = 1u << 31;
    /** Record link: the shard's last record this slice. */
    static constexpr std::uint32_t kEndOfLog = 0xFFFFFFFFu;

    /**
     * One placed job as the serial commit logs it for the serving
     * chip's shard: what FleetMetrics records of a completion, plus
     * the chip its SLA miss is charged over. The commit adds the job's
     * energy to the shard's metrics itself (one add, in the same
     * order), which keeps the record at 16 bytes.
     */
    struct CompletionRecord
    {
        /** Completion time minus arrival (s). */
        Seconds latency;
        /** Serving chip | kCompleted/kLate/kCritical. */
        std::uint32_t chipFlags;
        /** Slot of the shard's next record, or kEndOfLog. */
        std::uint32_t next;
    };
    /**
     * One placement's slot, reused every slice (16 bytes): the
     * candidate pass writes the job's candidates into it, and the
     * serial commit overwrites them with the job's completion record,
     * linked into the serving chip's shard log in commit order.
     */
    union PlacementSlot
    {
        /** Candidate k: chip | kBlocked, or kNoCandidate. */
        std::uint32_t candidates[kMaxCandidates];
        CompletionRecord record;
    };
    static_assert(sizeof(PlacementSlot) == sizeof(CompletionRecord),
                  "the candidates must fit in the record's bytes");

    struct Shard
    {
        unsigned lo = 0;
        unsigned hi = 0;
        Rng rng;
        FleetMetrics metrics;
        std::uint64_t corrEvents = 0;
        std::uint64_t dueRecoveries = 0;
        std::uint64_t backoffs = 0;
        /** Core-seconds of work lost + replayed in recoveries. */
        Seconds recoveryLoss = 0.0;

        /** Health lifecycle counters (this shard's chips). */
        std::uint64_t quarantines = 0;
        std::uint64_t readmissions = 0;
        std::uint64_t drainEvents = 0;
        /** Core-seconds drained off quarantining chips (cumulative). */
        Seconds drainedWork = 0.0;
        /** Core-seconds of quarantined/self-testing chip time. */
        Seconds offlineTime = 0.0;
        /** Work drained this slice; folded serially after advance. */
        Seconds sliceDrained = 0.0;
        /** Schedulable chips after this slice's advance. */
        unsigned online = 0;

        /** First and last slot of this slice's completion log. */
        std::uint32_t logHead = kEndOfLog;
        std::uint32_t logTail = kEndOfLog;
        /**
         * SLA misses the completion records charged this slice, per
         * kind over the shard's domain span starting at missBase;
         * folded into domainMisses_ after the pool when missed is set.
         */
        DomainLedger::Misses misses;
        std::array<unsigned, kNumFailureDomainKinds> missBase{};
        bool missed = false;

        /** Blast-radius attribution over this shard's chips. */
        DomainLedger ledger;

        /** Slice-batched scratch (touched only by this shard's task). */
        std::vector<std::int64_t> bucketScratch;
        std::vector<std::uint32_t> histScratch;
        std::vector<std::uint32_t> orderScratch;
        std::vector<std::uint32_t> corrScratch;
        std::vector<std::uint32_t> dueScratch;

        Shard() : rng(0) {}
    };

    ScaleFleetConfig cfg;
    /** Cold template with seed/numChips bound; materializeNode's
     *  FleetNode keeps a pointer into it. */
    FleetConfig coldConfig;
    TrafficGenerator traffic_;
    PowerCapGovernor governor_;

    /** Hot per-chip state, SoA: shard s owns index span [lo, hi). */
    std::vector<double> railMv_;
    std::vector<double> minSafeMv_;
    std::vector<double> earnedFloorMv_;
    std::vector<double> backlog_;
    std::vector<double> risk_;
    std::vector<double> energyJ_;
    /** Energy reading at the governor's last measurement. */
    std::vector<double> energyMark_;
    std::vector<std::uint32_t> holdoff_;
    /** Health FSM state per chip (one byte each). */
    std::vector<ChipHealth> health_;
    /** Windowed DUE-rate EWMA per chip (1/s). */
    std::vector<double> dueWindow_;
    /** Seconds left in the current quarantine/self-test/probation. */
    std::vector<double> healthTimer_;

    std::vector<Shard> shards;

    /** Correlated-event injector; null when the config is inert. */
    std::unique_ptr<FleetFaultInjector> chaos_;

    /** One deferred job: awaiting a retry slot or spare capacity. */
    struct RetryEntry
    {
        TrafficArrival arrival;
        unsigned attempt = 0;
        /** Earliest slice start the entry may re-place at. */
        Seconds readyAt = 0.0;
    };
    std::deque<RetryEntry> retryQueue_;
    /** Drained backlog awaiting redistribution (core-seconds). */
    Seconds requeueBacklog_ = 0.0;
    std::uint64_t retries_ = 0;
    std::uint64_t hedgedJobs_ = 0;
    std::uint64_t watchdogForced_ = 0;
    /** Invariant counter: placements onto offline chips (must be 0). */
    std::uint64_t placementsOnQuarantined_ = 0;
    /** SLA misses attributed to domains with an active event. */
    DomainLedger::Misses domainMisses_;
    std::vector<std::string> auditViolations_;

    Seconds now_ = 0.0;
    std::uint64_t sliceIndex_ = 0;
    std::uint64_t submitted_ = 0;
    /** Placed jobs whose predicted completion exceeds the horizon. */
    std::uint64_t pendingAtEnd_ = 0;
    /** Pending-at-end jobs whose deadline precedes the horizon. */
    std::uint64_t pendingViolations_ = 0;
    /** Accounted time at the governor's last measurement. */
    Seconds governorMark_ = 0.0;
    /** Closed-loop feedback: EWMA of per-slice mean latency. */
    Seconds latencyEwma_ = 0.0;
    bool latencySeeded_ = false;

    /** Reused arrival buffer (cleared each slice). */
    std::vector<TrafficArrival> arrivalBuf;
    /**
     * One slot per arrival of arrivalBuf (filled by the parallel
     * candidate pass), then one per retry attempted this slice.
     */
    std::vector<PlacementSlot> slots_;
    /** Reused governor telemetry buffer (mean power per chip over the
     *  span since the last measurement); shard tasks fill their spans. */
    std::vector<Watt> measureBuf;

    /** mix64(seed, 0xAFF1): the salt of every session's key. */
    std::uint64_t sessionSalt_ = 0;
    /** Candidate slots per arrival: min(placementCandidates, chips). */
    unsigned numCandidates_ = 0;

    void advanceShard(Shard &shard, Seconds slice);

    /**
     * Slice-batched shard advance (ScaleFleetConfig::sampling ==
     * chipBatched): margin-bucket pooling + thinning instead of two
     * draws per chip. Shares applyChipSlice with the exact path.
     */
    void advanceShardBatched(Shard &shard, Seconds slice);

    /**
     * The per-chip control state machine for one slice, given this
     * slice's correctable/DUE event counts (drawn per chip on the
     * exact path, thinned from the pooled draws on the batched path):
     * the health-FSM step, backoff/recovery/descent, queue drain and
     * the energy integral.
     */
    void applyChipSlice(Shard &shard, unsigned i, std::uint64_t corr,
                        std::uint64_t dues, Seconds slice,
                        double risk_decay, double inv_nominal,
                        Seconds drain_capacity, double window_decay);

    /** True while the chip takes no placements (health FSM). */
    bool chipOffline(unsigned chip) const
    {
        return !healthSchedulable(health_[chip]);
    }

    /** Session @p key's k-th candidate chip. */
    unsigned candidateChip(std::uint64_t key, unsigned k) const
    {
        return unsigned(mix64(key, k) % cfg.numChips);
    }
    /**
     * Fill @p slot with @p arrival's numCandidates_ candidates in k
     * order: the chip id, or'ed with kBlocked when it is throttled or
     * risky, or kNoCandidate when it is offline. Returns the session
     * key. Pure: it reads only health, throttle flags and risk, which
     * stay frozen while placement runs, so the pass over a slice's
     * arrivals runs on the pool.
     */
    std::uint64_t candidates(const TrafficArrival &arrival,
                             PlacementSlot &slot) const;
    /** Fill the slots of arrivalBuf, in fixed chunks on the pool. */
    void findCandidates(ExperimentPool &pool);

    struct PlacementChoice
    {
        bool found = false;
        unsigned best = 0;
        bool haveSecond = false;
        unsigned second = 0;
    };
    /** Score one job's candidate @p slot (serial: reads backlog). */
    PlacementChoice choosePlacement(const PlacementSlot &slot,
                                    const JobClass &cls) const;
    /** Watchdog fallback: the first online chip from the home chip of
     *  session @p key on, ignoring affinity. */
    PlacementChoice forcePlacement(std::uint64_t key) const;

    enum class PlaceOutcome
    {
        placed,
        /** Predicted deadline miss; defer under the retry budget. */
        retry,
        /** No schedulable chip among the candidates. */
        noCapacity,
    };
    /**
     * Commit one placement: the retry check, backlog and hedging, and
     * the serial counters. The completion itself is logged in the
     * job's slot @p slot for the serving chip's shard.
     */
    PlaceOutcome placeOne(const TrafficArrival &arrival,
                          const JobClass &cls,
                          const PlacementChoice &choice, std::uint32_t slot,
                          unsigned attempt, Seconds effective_start,
                          bool force, Seconds &latency_sum,
                          std::uint64_t &placed);

    void placeArrivals();
    void processRetries(Seconds &latency_sum, std::uint64_t &placed);
    /**
     * One shard's slice task: record the completions logged for it,
     * advance its chips, then do its span of the per-chip bookkeeping
     * (governor absent flags, the governor measurement when
     * @p governor_span is positive, the online count).
     */
    void runShardSlice(Shard &shard, Seconds governor_span);
    void recordCompletions(Shard &shard);
    /** Fold per-shard drained work and spread it over healthy chips. */
    void foldDrained();
    /** Fold the shards' per-slice SLA-miss counts into domainMisses_. */
    void foldMisses();
    std::size_t shardOf(unsigned chip) const
    {
        return chip / cfg.chipsPerShard;
    }
};

} // namespace vspec

#endif // VSPEC_FLEET_SHARD_HH
