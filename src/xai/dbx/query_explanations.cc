#include "xai/dbx/query_explanations.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace xai {
namespace {

using rel::Relation;
using rel::Value;

// Rebuilds the relation without tuples matching the predicate conjunction.
Relation Remove(const Relation& input,
                const std::vector<std::pair<int, Value>>& predicate,
                int* removed) {
  Relation out(input.name(), input.columns());
  *removed = 0;
  for (int i = 0; i < input.num_tuples(); ++i) {
    bool matches = true;
    for (const auto& [column, value] : predicate)
      matches = matches && input.tuple(i)[column].KeyEquals(value);
    if (matches) {
      ++*removed;
      continue;
    }
    (void)out.Append(input.tuple(i), input.annotation(i));
  }
  return out;
}

}  // namespace

std::string PredicateExplanation::ToString(
    const rel::Relation& relation) const {
  std::ostringstream os;
  for (size_t p = 0; p < predicate.size(); ++p) {
    os << (p ? " AND " : "") << relation.columns()[predicate[p].first]
       << " = " << predicate[p].second.ToString();
  }
  char buf[120];
  std::snprintf(buf, sizeof(buf),
                "  (support %d, answer %.4g -> %.4g, effect %+.4g)",
                support, original, after_intervention, effect);
  os << buf;
  return os.str();
}

Result<std::vector<PredicateExplanation>> ExplainAggregateAnswer(
    const rel::Relation& input,
    const std::function<double(const rel::Relation&)>& query,
    const std::vector<int>& candidate_columns,
    const QueryExplanationConfig& config) {
  if (input.num_tuples() == 0)
    return Status::InvalidArgument("empty input relation");
  for (int c : candidate_columns)
    if (c < 0 || c >= input.num_columns())
      return Status::OutOfRange("candidate column out of range");
  if (candidate_columns.empty())
    return Status::InvalidArgument("no candidate columns");

  double original = query(input);

  // Distinct values per candidate column under the key rule (the first
  // appearance stands for its class), ordered by rendering; values that
  // render alike keep their first-appearance order. Scoring a candidate
  // scans every tuple anyway, so the linear dedupe costs no more.
  std::vector<std::vector<Value>> distinct(candidate_columns.size());
  for (size_t k = 0; k < candidate_columns.size(); ++k) {
    std::vector<Value>& values = distinct[k];
    for (int i = 0; i < input.num_tuples(); ++i) {
      const Value& v = input.tuple(i)[candidate_columns[k]];
      if (std::none_of(values.begin(), values.end(),
                       [&](const Value& seen) { return seen.KeyEquals(v); }))
        values.push_back(v);
    }
    std::stable_sort(values.begin(), values.end(),
                     [](const Value& x, const Value& y) {
                       return x.ToString() < y.ToString();
                     });
  }

  std::vector<PredicateExplanation> results;
  auto consider = [&](std::vector<std::pair<int, Value>> predicate) {
    int removed = 0;
    Relation reduced = Remove(input, predicate, &removed);
    if (removed < config.min_support || removed == input.num_tuples())
      return;
    PredicateExplanation exp;
    exp.predicate = std::move(predicate);
    exp.original = original;
    exp.after_intervention = query(reduced);
    exp.effect = original - exp.after_intervention;
    exp.support = removed;
    results.push_back(std::move(exp));
  };

  for (size_t k = 0; k < candidate_columns.size(); ++k)
    for (const Value& v : distinct[k])
      consider({{candidate_columns[k], v}});

  if (config.include_pairs) {
    for (size_t a = 0; a < candidate_columns.size(); ++a) {
      for (size_t b = a + 1; b < candidate_columns.size(); ++b) {
        for (const Value& va : distinct[a])
          for (const Value& vb : distinct[b])
            consider({{candidate_columns[a], va},
                      {candidate_columns[b], vb}});
      }
    }
  }

  std::sort(results.begin(), results.end(),
            [](const PredicateExplanation& x, const PredicateExplanation& y) {
              return std::fabs(x.effect) > std::fabs(y.effect);
            });
  if (config.top_k > 0 &&
      static_cast<int>(results.size()) > config.top_k)
    results.resize(config.top_k);
  return results;
}

}  // namespace xai
