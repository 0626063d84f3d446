// The decision rules of the §4 range lookup, shared by its drivers
// (RangeCacheSystem, RingClient, ScenarioEngine), which own only their
// routing and transport: what an answer scores, which answer wins,
// which answers are one answer, how a lookup counts, and when it
// publishes the query range (cache-on-miss).
#ifndef P2PRANGE_STORE_PROTOCOL_H_
#define P2PRANGE_STORE_PROTOCOL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "hash/range.h"
#include "store/partition_key.h"

namespace p2prange {

/// \brief How a lookup scores a stored range against the query (§5.2).
enum class MatchCriterion {
  kJaccard,      ///< maximize |Q∩R| / |Q∪R| (what the hashing optimizes)
  kContainment,  ///< maximize |Q∩R| / |Q| (what the user actually wants)
};

const char* MatchCriterionName(MatchCriterion c);

/// \brief A candidate answer: a stored descriptor plus its score
/// against the query range under the criterion used.
struct MatchCandidate {
  PartitionDescriptor descriptor;
  double similarity = 0.0;  ///< score under the criterion that selected it
  bool exact = false;       ///< stored range equals the query range
};

/// \brief Score of `stored` as an answer to `query` under `criterion`.
inline double MatchScore(const Range& query, const Range& stored,
                         MatchCriterion criterion) {
  return criterion == MatchCriterion::kJaccard ? query.Jaccard(stored)
                                               : query.ContainmentIn(stored);
}

/// \brief Rank order: true when (`similarity`, `exact`) ranks strictly
/// ahead of (`other_similarity`, `other_exact`): higher similarity
/// first, on a tie the exact answer first, else arrival order.
inline bool RanksAhead(double similarity, bool exact, double other_similarity,
                       bool other_exact) {
  if (similarity != other_similarity) return similarity > other_similarity;
  return exact && !other_exact;
}

inline const PartitionDescriptor& DescriptorOf(const MatchCandidate& c) {
  return c.descriptor;
}
inline const PartitionDescriptor& DescriptorOf(const PartitionDescriptor& d) {
  return d;
}

/// \brief Dedup rule: appends `candidate` (a MatchCandidate or a bare
/// descriptor) unless `candidates` holds the same key at the same
/// holder already — two buckets or two replicas returning one answer.
/// Returns whether it was appended.
template <typename Candidate>
bool AddCandidate(Candidate candidate, std::vector<Candidate>* candidates) {
  for (const Candidate& c : *candidates) {
    if (DescriptorOf(c) == DescriptorOf(candidate)) return false;
  }
  candidates->push_back(std::move(candidate));
  return true;
}

/// \brief Sorts `candidates` best first under RanksAhead.
void RankCandidates(std::vector<MatchCandidate>* candidates);

/// \brief How a lookup counts in the §4 accounting.
enum class MatchKind : uint8_t {
  kMiss,         ///< no probe returned any candidate
  kApproximate,  ///< the winner is not the query range (even at score 0)
  kExact,        ///< the winner is the query range itself
};

inline MatchKind ClassifyMatch(bool has_winner, bool winner_exact) {
  if (!has_winner) return MatchKind::kMiss;
  return winner_exact ? MatchKind::kExact : MatchKind::kApproximate;
}

/// \brief Classifies a lookup and counts it in `tally`'s exact_hits,
/// approx_hits or misses (SystemMetrics, ScenarioReport).
template <typename Tally>
MatchKind CountMatch(bool has_winner, bool winner_exact, Tally* tally) {
  const MatchKind kind = ClassifyMatch(has_winner, winner_exact);
  ++(kind == MatchKind::kExact         ? tally->exact_hits
     : kind == MatchKind::kApproximate ? tally->approx_hits
                                       : tally->misses);
  return kind;
}

/// \brief The cache-on-miss rule: a lookup that did not find the query
/// range itself publishes it.
inline bool PublishesOnMiss(MatchKind kind) { return kind != MatchKind::kExact; }

}  // namespace p2prange

#endif  // P2PRANGE_STORE_PROTOCOL_H_
