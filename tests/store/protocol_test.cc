// The §4 decision rules every lookup driver shares: score, rank order,
// (key, holder) dedup, exact/approximate/miss accounting and the
// cache-on-miss decision.
#include "store/protocol.h"

#include <gtest/gtest.h>

#include "store/bucket_store.h"

namespace p2prange {
namespace {

PartitionDescriptor Desc(uint32_t lo, uint32_t hi, uint16_t holder_port = 1) {
  return PartitionDescriptor{PartitionKey{"T", "a", Range(lo, hi)},
                             NetAddress{1, holder_port}};
}

MatchCandidate Candidate(uint32_t lo, uint32_t hi, const Range& query,
                         uint16_t holder_port = 1) {
  const PartitionDescriptor d = Desc(lo, hi, holder_port);
  return MatchCandidate{d,
                        MatchScore(query, d.key.range, MatchCriterion::kJaccard),
                        d.key.range == query};
}

TEST(ProtocolTest, ScoresUnderEitherCriterion) {
  const Range q(0, 99);
  EXPECT_DOUBLE_EQ(MatchScore(q, Range(0, 199), MatchCriterion::kJaccard), 0.5);
  EXPECT_DOUBLE_EQ(MatchScore(q, Range(0, 199), MatchCriterion::kContainment),
                   1.0);
  EXPECT_DOUBLE_EQ(MatchScore(q, Range(500, 600), MatchCriterion::kJaccard),
                   0.0);
}

TEST(ProtocolTest, RankOrderIsSimilarityThenExactThenArrival) {
  EXPECT_TRUE(RanksAhead(0.8, false, 0.5, true));
  EXPECT_FALSE(RanksAhead(0.5, true, 0.8, false));
  EXPECT_TRUE(RanksAhead(1.0, true, 1.0, false));
  EXPECT_FALSE(RanksAhead(1.0, false, 1.0, true));
  // A full tie ranks neither ahead: arrival order decides.
  EXPECT_FALSE(RanksAhead(0.5, false, 0.5, false));

  std::vector<MatchCandidate> c;
  c.push_back(MatchCandidate{Desc(0, 9, 1), 0.5, false});
  c.push_back(MatchCandidate{Desc(0, 9, 2), 0.8, false});
  c.push_back(MatchCandidate{Desc(0, 9, 3), 0.5, true});
  c.push_back(MatchCandidate{Desc(0, 9, 4), 0.5, false});
  RankCandidates(&c);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].descriptor.holder.port, 2);
  EXPECT_EQ(c[1].descriptor.holder.port, 3);
  EXPECT_EQ(c[2].descriptor.holder.port, 1);
  EXPECT_EQ(c[3].descriptor.holder.port, 4);
}

TEST(ProtocolTest, DedupIsByKeyAndHolder) {
  const Range q(0, 99);
  std::vector<MatchCandidate> c;
  EXPECT_TRUE(AddCandidate(Candidate(0, 89, q, 1), &c));
  // The same partition at the same holder, from another bucket.
  EXPECT_FALSE(AddCandidate(Candidate(0, 89, q, 1), &c));
  // The same key at a second holder is a second answer.
  EXPECT_TRUE(AddCandidate(Candidate(0, 89, q, 2), &c));
  // Another key at the first holder, too.
  EXPECT_TRUE(AddCandidate(Candidate(0, 79, q, 1), &c));
  EXPECT_EQ(c.size(), 3u);
  // A different column is a different key.
  MatchCandidate other = Candidate(0, 89, q, 1);
  other.descriptor.key.attribute = "b";
  EXPECT_TRUE(AddCandidate(other, &c));
  EXPECT_EQ(c.size(), 4u);
}

TEST(ProtocolTest, ZeroSimilarityWinnerCountsAsApproximate) {
  EXPECT_EQ(ClassifyMatch(false, false), MatchKind::kMiss);
  EXPECT_EQ(ClassifyMatch(true, false), MatchKind::kApproximate);
  EXPECT_EQ(ClassifyMatch(true, true), MatchKind::kExact);

  struct Tally {
    uint64_t exact_hits = 0, approx_hits = 0, misses = 0;
  } tally;
  const MatchCandidate disjoint = Candidate(500, 600, Range(0, 99));
  ASSERT_EQ(disjoint.similarity, 0.0);
  EXPECT_EQ(CountMatch(true, disjoint.exact, &tally), MatchKind::kApproximate);
  EXPECT_EQ(CountMatch(false, false, &tally), MatchKind::kMiss);
  EXPECT_EQ(CountMatch(true, true, &tally), MatchKind::kExact);
  EXPECT_EQ(tally.approx_hits, 1u);
  EXPECT_EQ(tally.misses, 1u);
  EXPECT_EQ(tally.exact_hits, 1u);
}

TEST(ProtocolTest, CacheOnMissPublishesUnlessExact) {
  EXPECT_TRUE(PublishesOnMiss(MatchKind::kMiss));
  EXPECT_TRUE(PublishesOnMiss(MatchKind::kApproximate));
  EXPECT_FALSE(PublishesOnMiss(MatchKind::kExact));
}

TEST(ProtocolTest, JaccardWinnerNeedNotBeTheRecallWinner) {
  const Range q(0, 99);
  std::vector<MatchCandidate> c;
  AddCandidate(Candidate(0, 999, q), &c);  // recall 1.0, Jaccard 0.1
  AddCandidate(Candidate(0, 89, q), &c);   // recall 0.9, Jaccard 0.9
  RankCandidates(&c);
  EXPECT_EQ(c.front().descriptor.key.range, Range(0, 89));
  EXPECT_DOUBLE_EQ(q.RecallFrom(c.front().descriptor.key.range), 0.9);
}

TEST(ProtocolTest, BucketBestMatchUsesTheSharedRankOrder) {
  // Under containment a superset ties the exact range at 1.0; the
  // exact one wins although the superset was stored first.
  BucketStore store;
  store.Insert(7, Desc(0, 500));
  store.Insert(7, Desc(10, 20));
  const PartitionKey q{"T", "a", Range(10, 20)};
  auto best = store.BestMatch(7, q, MatchCriterion::kContainment);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->exact);
  best = store.BestMatchAnywhere(q, MatchCriterion::kContainment);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->exact);
}

}  // namespace
}  // namespace p2prange
