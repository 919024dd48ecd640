// Shared helpers of the SVGIC benchmark: timing summaries, the workload
// catalogue, the fixed instance specs and the seeded command streams.
//
// Everything here is deterministic and side-effect free so the unit tests
// (perfbench/tests) can pin it down: the same seed always yields the same
// byte-identical command stream, and the churn stream only ever names user
// and item ids that are live at that point of the stream.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.h"
#include "datagen/datasets.h"
#include "serve/session_command.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using savg::ItemId;
using savg::SessionCommand;
using savg::UserId;

// --- Timing summaries --------------------------------------------------------

/// Minimum number of samples that must lie beyond a reported tail.
constexpr int64_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (p in (0, 100]) of ascending `sorted` samples;
/// 0 when empty.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples:
/// n - ceil(p * n / 100).
int64_t SamplesBeyond(size_t n, double p);

/// The highest ladder percentile with at least `min_beyond` samples beyond
/// it, or 0 when not even the median qualifies.
double HighestTailPercentile(size_t n, int64_t min_beyond = kMinSamplesBeyond);

/// Median plus the highest percentile backed by >= 10 samples beyond it.
struct TimingSummary {
  size_t count = 0;
  double median = 0.0;
  double tail_percentile = 0.0;  ///< 0 when too few samples
  double tail = 0.0;
};

TimingSummary Summarize(std::vector<double> samples);

double Median(std::vector<double> samples);

// --- Workloads and instances -------------------------------------------------

enum class Workload { kServeBurst, kServeChurn };

const char* WorkloadName(Workload workload);
savg::Result<Workload> ParseWorkload(const std::string& name);

struct InstanceSpec {
  savg::DatasetKind kind = savg::DatasetKind::kTimik;
  int users = 0;
  int items = 0;
  int slots = 0;
  uint64_t seed = 0;
};

std::string SpecName(const InstanceSpec& spec);

/// The two serving sessions (Timik 20x40x3). The instances are fixed so
/// the cold first resolve costs the same for every workload seed; the seed
/// drives the command streams and the rounding seeds.
std::vector<InstanceSpec> ServeSessionSpecs();

/// The planning probe's fixed instance set: Timik 20x40x3 and Yelp
/// 20x200x5 take the exact simplex path, Yelp 40x2000x10 (5778 rows) the
/// subgradient one.
std::vector<InstanceSpec> PlanProbeSpecs();

savg::Result<savg::SvgicInstance> GenerateInstance(const InstanceSpec& spec);

/// Seed of session `session`'s command stream (and rounding RNG) under
/// workload seed `seed`.
uint64_t SessionSeed(uint64_t seed, int session);

// --- Command streams ---------------------------------------------------------

/// Structural events of one serve-churn period: (round in the period,
/// mutation slot in the round, command type).
struct ScheduledEvent {
  int round;
  int slot;
  savg::CommandType type;
};

/// The serve-churn schedule, repeated every kChurnPeriodRounds rounds. Its
/// per-period counts follow the library's serving stream
/// (bench_online_sessions' ServingStream: EventStreamParams weights over
/// 4 mutations per resolve) scaled to 200 mutation slots: join 4% and
/// leave 3% -> 7 each, add-item 2% and retire-item 1% -> 3 each (a
/// stationary stream needs as many departures as arrivals), friend 8% ->
/// 14 (two per guest visit), lambda 2% -> 4. Each guest joins, befriends two
/// core users and leaves three rounds later; each promo item is retired
/// eight rounds after it was added.
constexpr int kChurnPeriodRounds = 50;
const std::vector<ScheduledEvent>& ChurnSchedule();

/// Seeded, unbounded command stream of one serving session.
///
/// serve-burst rounds: 8 preference mutations, then 8 resolves (the first
/// resolve sees up to 8 dirty users, the other 7 none).
///
/// serve-churn rounds: 4 mutations, then 1 resolve. Structural events
/// (join, friend, leave, add-item, retire-item, lambda) sit at fixed
/// places of ChurnSchedule(), so every stretch of kChurnPeriodRounds
/// rounds carries the same mix however many rounds a run completes. The
/// other slots are preference (55) or tau (25) changes, drawn with the
/// EventStreamParams weights; every round has at least two of them, so
/// every resolve is dirty. The seed picks users, items and values.
///
/// Departures from EventStreamParams, each measured (perfbench/README.md):
/// values are nudged around their initial values, not redrawn (see
/// kNudge); preference and tau changes touch only the initial ("core")
/// users, items and friendships, so guests and promo items carry no
/// utility and their leave or retirement removes no LP column with mass;
/// the initial users and items never leave.
class CommandStream {
 public:
  /// A preference, tau or lambda change sets the value to its initial value
  /// times a factor in [1 - kNudge, 1 + kNudge]: shoppers' interests
  /// fluctuate around their own baseline while they browse, and the
  /// instance stays statistically the same over a run of any length.
  /// (Redrawing values from scratch gave heavy-tailed pivot counts, and a
  /// run's throughput then depended on which few resolves drew the big
  /// repairs; a random walk of nudges let each seed's instance drift
  /// apart, and with it the run's utility.)
  static constexpr double kNudge = 0.15;

  CommandStream(Workload workload, uint64_t seed,
                const savg::SvgicInstance& initial);

  /// Appends the next round's commands to `out`; for each command also
  /// appends to `expected_ids` the id a kJoin / kAddItem must be assigned
  /// (-1 for other commands).
  void NextRound(std::vector<SessionCommand>* out,
                 std::vector<int64_t>* expected_ids);

  /// Rounds generated so far.
  int64_t rounds() const { return rounds_; }

 private:
  SessionCommand Pref();
  SessionCommand PrefOrTau();
  SessionCommand Scheduled(savg::CommandType type, int64_t* expected_id);
  /// `initial` times a factor drawn from [1 - kNudge, 1 + kNudge].
  double Nudge(double initial);

  Workload workload_;
  savg::Rng rng_;
  int64_t rounds_ = 0;
  int num_user_ids_ = 0;
  int num_item_ids_ = 0;
  int core_users_ = 0;
  int core_items_ = 0;
  double lambda_ = 0.0;  ///< initial lambda
  UserId guest_ = -1;  ///< the visiting guest, -1 when none
  ItemId promo_ = -1;  ///< the live promo item, -1 when none
  /// Core friendships (u < v) of the initial instance: tau mutations only
  /// re-weight existing social ties, so the LP's y-block stays the same
  /// size over the run.
  std::vector<std::pair<UserId, UserId>> core_edges_;
  /// Initial p(u, c) over core users x core items and tau(u -> v, c) over
  /// core_edges_ x core items.
  std::vector<double> p_;
  std::vector<double> tau_;
};

}  // namespace perfbench
