#include "store/protocol.h"

#include <algorithm>

namespace p2prange {

const char* MatchCriterionName(MatchCriterion c) {
  switch (c) {
    case MatchCriterion::kJaccard:
      return "jaccard";
    case MatchCriterion::kContainment:
      return "containment";
  }
  return "unknown";
}

void RankCandidates(std::vector<MatchCandidate>* candidates) {
  std::stable_sort(candidates->begin(), candidates->end(),
                   [](const MatchCandidate& a, const MatchCandidate& b) {
                     return RanksAhead(a.similarity, a.exact, b.similarity,
                                       b.exact);
                   });
}

}  // namespace p2prange
