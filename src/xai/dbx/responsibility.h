#ifndef XAI_DBX_RESPONSIBILITY_H_
#define XAI_DBX_RESPONSIBILITY_H_

#include <map>
#include <vector>

#include "xai/core/status.h"
#include "xai/relational/provenance.h"

namespace xai {

/// \brief Causal responsibility of tuples for query answers (Meliou et al.
/// 2010 "WHY SO?", §3 "Explanations in Databases").
///
/// An endogenous tuple t is a *counterfactual cause* of a (boolean) answer
/// if removing t alone removes the answer; it is an *actual cause* if some
/// contingency set Gamma of endogenous tuples exists such that after
/// removing Gamma the answer still holds but additionally removing t removes
/// it. Responsibility = 1 / (1 + |smallest such Gamma|); 0 if t is not a
/// cause.
struct ResponsibilityResult {
  /// Per endogenous tuple id: responsibility in [0, 1].
  std::map<int, double> responsibility;
  /// The minimum contingency set found per tuple (empty for counterfactual
  /// causes; meaningless when responsibility is 0).
  std::map<int, std::vector<int>> contingency;
};

/// Exact responsibility by search over contingency sets (endogenous count
/// <= 20; the problem is NP-hard in general, §3's point exactly). Each
/// tuple gets its smallest contingency set of at most
/// `max_contingency_size` tuples, ties going to the lexicographically
/// first list of tuple positions. The search reads the lineage's truth
/// table (TruthTableWords, 2^n coalitions, 64 per program pass) one word
/// of the tuple's swings (ForEachSwingWord) at a time.
Result<ResponsibilityResult> TupleResponsibility(
    const rel::ProvExprPtr& lineage, const std::vector<int>& endogenous,
    int max_contingency_size = 6);

}  // namespace xai

#endif  // XAI_DBX_RESPONSIBILITY_H_
