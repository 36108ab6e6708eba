#include "xai/relational/provenance.h"

#include <algorithm>
#include <limits>
#include <map>

#include "xai/core/check.h"
#include "xai/core/rng.h"

namespace xai::rel {

const ProvExpr ProvExpr::kZeroNode(Kind::kZero, -1, nullptr, 0);
const ProvExpr ProvExpr::kOneNode(Kind::kOne, -1, nullptr, 0);

struct ProvExpr::BaseBlock {
  explicit BaseBlock(int id) : node(Kind::kBase, id, nullptr, 0) {}
  ProvExpr node;
};

struct ProvExpr::BinaryBlock {
  BinaryBlock(Kind kind, ProvExprPtr a, ProvExprPtr b)
      : node(kind, -1, children, 2),
        children{a.get(), b.get()},
        pins{std::move(a), std::move(b)} {}
  ProvExpr node;
  const ProvExpr* children[2];
  ProvExprPtr pins[2];
};

// Aliasing an empty owner: the handle points at the static node and owns
// nothing, so copying it never touches a reference count.
ProvExprPtr ProvExpr::Zero() {
  return ProvExprPtr(ProvExprPtr(), &kZeroNode);
}

ProvExprPtr ProvExpr::One() { return ProvExprPtr(ProvExprPtr(), &kOneNode); }

ProvExprPtr ProvExpr::Base(int id) {
  auto block = std::make_shared<const BaseBlock>(id);
  const ProvExpr* node = &block->node;
  return ProvExprPtr(std::move(block), node);
}

ProvExprPtr ProvExpr::MakeBinary(Kind kind, ProvExprPtr a, ProvExprPtr b) {
  auto block =
      std::make_shared<const BinaryBlock>(kind, std::move(a), std::move(b));
  const ProvExpr* node = &block->node;
  return ProvExprPtr(std::move(block), node);
}

// Zero and One exist only as the two static nodes: no factory or arena
// writes a node of either kind. So the rules compare addresses and never
// load an operand, which keeps a bulk build from touching every base node.
const ProvExpr* ProvExpr::SimplifiedTimes(const ProvExpr* a,
                                          const ProvExpr* b) {
  if (a == &kZeroNode) return a;
  if (b == &kZeroNode) return b;
  if (a == &kOneNode) return b;
  if (b == &kOneNode) return a;
  return nullptr;
}

const ProvExpr* ProvExpr::SimplifiedSum(const ProvExpr** terms, int64_t* n) {
  int64_t kept = 0;
  for (int64_t i = 0; i < *n; ++i) {
    if (terms[i] != &kZeroNode) terms[kept++] = terms[i];
  }
  *n = kept;
  if (kept == 0) return &kZeroNode;
  if (kept == 1) return terms[0];
  return nullptr;
}

ProvExprPtr ProvExpr::Plus(ProvExprPtr a, ProvExprPtr b) {
  const ProvExpr* terms[2] = {a.get(), b.get()};
  int64_t n = 2;
  if (const ProvExpr* sum = SimplifiedSum(terms, &n)) {
    if (sum == a.get()) return a;
    if (sum == b.get()) return b;
    return Zero();
  }
  return MakeBinary(Kind::kPlus, std::move(a), std::move(b));
}

ProvExprPtr ProvExpr::PlusAll(std::vector<ProvExprPtr> terms) {
  const int64_t n = static_cast<int64_t>(terms.size());
  auto arena = std::make_shared<ProvArena>(/*max_nodes=*/1, n);
  const ProvExpr** slots = arena->TermSlots(n);
  for (int64_t i = 0; i < n; ++i) slots[i] = terms[i].get();
  const ProvExpr* sum = arena->Sum(slots, n);
  // No new node: the sum is Zero or one of the terms, which needs no arena.
  if (sum == &kZeroNode) return Zero();
  for (ProvExprPtr& t : terms) {
    if (t.get() == sum) return std::move(t);
  }
  for (ProvExprPtr& t : terms) arena->Pin(std::move(t));
  return ProvExprPtr(std::move(arena), sum);
}

ProvExprPtr ProvExpr::Times(ProvExprPtr a, ProvExprPtr b) {
  const ProvExpr* product = SimplifiedTimes(a.get(), b.get());
  if (!product) return MakeBinary(Kind::kTimes, std::move(a), std::move(b));
  return product == a.get() ? std::move(a) : std::move(b);
}

ProvArena::ProvArena(int64_t max_nodes, int64_t max_children)
    : nodes_(new ProvExpr[max_nodes]),
      children_(std::make_unique_for_overwrite<const ProvExpr*[]>(
          max_children)),
      max_nodes_(max_nodes),
      max_children_(max_children) {}

void ProvArena::Pin(std::shared_ptr<const void> input) {
  if (!pins_.empty() && !pins_.back().owner_before(input) &&
      !input.owner_before(pins_.back()))
    return;
  pins_.push_back(std::move(input));
}

const ProvExpr* ProvArena::Product(int64_t k, const ProvExpr* a,
                                   const ProvExpr* b) {
  XAI_CHECK(k >= 0 && k < max_nodes_ && 2 * k + 2 <= max_children_ &&
            num_nodes_ == 0 && num_children_ == 0);
  if (const ProvExpr* product = ProvExpr::SimplifiedTimes(a, b))
    return product;
  const ProvExpr** children = children_.get() + 2 * k;
  children[0] = a;
  children[1] = b;
  nodes_[k] = ProvExpr(ProvExpr::Kind::kTimes, -1, children, 2);
  return &nodes_[k];
}

const ProvExpr** ProvArena::TermSlots(int64_t n) {
  XAI_CHECK(n >= 0 && num_children_ + n <= max_children_);
  const ProvExpr** slots = children_.get() + num_children_;
  num_children_ += n;
  return slots;
}

const ProvExpr* ProvArena::Sum(const ProvExpr** terms, int64_t n) {
  XAI_CHECK(terms >= children_.get() &&
            terms + n <= children_.get() + num_children_);
  if (const ProvExpr* sum = ProvExpr::SimplifiedSum(terms, &n)) return sum;
  XAI_CHECK(num_nodes_ < max_nodes_ &&
            n <= std::numeric_limits<uint32_t>::max());
  ProvExpr* node = &nodes_[num_nodes_++];
  *node = ProvExpr(ProvExpr::Kind::kPlus, -1, terms, static_cast<uint32_t>(n));
  return node;
}

bool ProvExpr::EvalBool(const std::function<bool(int)>& present) const {
  switch (kind_) {
    case Kind::kZero:
      return false;
    case Kind::kOne:
      return true;
    case Kind::kBase:
      return present(base_id_);
    case Kind::kPlus:
      for (const ProvExpr* c : children())
        if (c->EvalBool(present)) return true;
      return false;
    case Kind::kTimes:
      for (const ProvExpr* c : children())
        if (!c->EvalBool(present)) return false;
      return true;
  }
  return false;
}

int64_t ProvExpr::EvalCount(const std::function<int64_t(int)>& mult) const {
  switch (kind_) {
    case Kind::kZero:
      return 0;
    case Kind::kOne:
      return 1;
    case Kind::kBase:
      return mult(base_id_);
    case Kind::kPlus: {
      int64_t sum = 0;
      for (const ProvExpr* c : children()) sum += c->EvalCount(mult);
      return sum;
    }
    case Kind::kTimes: {
      int64_t product = 1;
      for (const ProvExpr* c : children()) product *= c->EvalCount(mult);
      return product;
    }
  }
  return 0;
}

double ProvExpr::EvalNumeric(
    const std::function<double(int)>& value,
    const std::function<double(double, double)>& plus,
    const std::function<double(double, double)>& times, double zero,
    double one) const {
  switch (kind_) {
    case Kind::kZero:
      return zero;
    case Kind::kOne:
      return one;
    case Kind::kBase:
      return value(base_id_);
    case Kind::kPlus: {
      double acc = children_[0]->EvalNumeric(value, plus, times, zero, one);
      for (size_t i = 1; i < num_children_; ++i)
        acc = plus(acc,
                   children_[i]->EvalNumeric(value, plus, times, zero, one));
      return acc;
    }
    case Kind::kTimes: {
      double acc = children_[0]->EvalNumeric(value, plus, times, zero, one);
      for (size_t i = 1; i < num_children_; ++i)
        acc = times(acc,
                    children_[i]->EvalNumeric(value, plus, times, zero, one));
      return acc;
    }
  }
  return zero;
}

std::set<int> ProvExpr::Lineage() const {
  std::set<int> out;
  switch (kind_) {
    case Kind::kBase:
      out.insert(base_id_);
      break;
    case Kind::kPlus:
    case Kind::kTimes:
      for (const ProvExpr* child : children()) {
        std::set<int> sub = child->Lineage();
        out.insert(sub.begin(), sub.end());
      }
      break;
    default:
      break;
  }
  return out;
}

std::set<std::set<int>> ProvExpr::WhyProvenance() const {
  switch (kind_) {
    case Kind::kZero:
      return {};
    case Kind::kOne:
      return {{}};
    case Kind::kBase:
      return {{base_id_}};
    case Kind::kPlus: {
      std::set<std::set<int>> out;
      for (const ProvExpr* c : children()) {
        std::set<std::set<int>> sub = c->WhyProvenance();
        out.insert(sub.begin(), sub.end());
      }
      // Minimize: drop witnesses that strictly contain another witness.
      std::set<std::set<int>> minimal;
      for (const auto& w : out) {
        bool dominated = false;
        for (const auto& other : out) {
          if (other != w &&
              std::includes(w.begin(), w.end(), other.begin(), other.end())) {
            dominated = true;
            break;
          }
        }
        if (!dominated) minimal.insert(w);
      }
      return minimal;
    }
    case Kind::kTimes: {
      std::set<std::set<int>> out = children_[0]->WhyProvenance();
      for (size_t i = 1; i < num_children_; ++i) {
        std::set<std::set<int>> rhs = children_[i]->WhyProvenance();
        std::set<std::set<int>> next;
        for (const auto& a : out) {
          for (const auto& b : rhs) {
            std::set<int> merged = a;
            merged.insert(b.begin(), b.end());
            next.insert(std::move(merged));
          }
        }
        out = std::move(next);
      }
      return out;
    }
  }
  return {};
}

double ProvExpr::ProbabilityExact(
    const std::function<double(int)>& prob) const {
  std::set<int> lineage = Lineage();
  std::vector<int> vars(lineage.begin(), lineage.end());
  int k = static_cast<int>(vars.size());
  XAI_CHECK_MSG(k <= 20,
                "exact possible-worlds enumeration limited to 20 variables");
  double total = 0.0;
  uint64_t limit = 1ULL << k;
  for (uint64_t world = 0; world < limit; ++world) {
    double p_world = 1.0;
    std::map<int, bool> present;
    for (int i = 0; i < k; ++i) {
      bool exists = (world >> i) & 1ULL;
      present[vars[i]] = exists;
      double p = prob(vars[i]);
      p_world *= exists ? p : 1.0 - p;
    }
    if (p_world == 0.0) continue;
    if (EvalBool([&](int id) {
          auto it = present.find(id);
          return it == present.end() ? true : it->second;
        })) {
      total += p_world;
    }
  }
  return total;
}

double ProvExpr::ProbabilityMonteCarlo(
    const std::function<double(int)>& prob, int samples,
    uint64_t seed) const {
  XAI_CHECK_GT(samples, 0);
  std::set<int> lineage = Lineage();
  xai::Rng rng(seed);
  int hits = 0;
  std::map<int, bool> present;
  for (int s = 0; s < samples; ++s) {
    for (int id : lineage) present[id] = rng.Bernoulli(prob(id));
    if (EvalBool([&](int id) {
          auto it = present.find(id);
          return it == present.end() ? true : it->second;
        })) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / samples;
}

std::string ProvExpr::ToString(
    const std::function<std::string(int)>& name) const {
  auto render = [&](int id) {
    return name ? name(id) : "t" + std::to_string(id);
  };
  switch (kind_) {
    case Kind::kZero:
      return "0";
    case Kind::kOne:
      return "1";
    case Kind::kBase:
      return render(base_id_);
    case Kind::kPlus: {
      std::string s = children_[0]->ToString(name);
      for (size_t i = 1; i < num_children_; ++i)
        s += " + " + children_[i]->ToString(name);
      return s;
    }
    case Kind::kTimes: {
      auto wrap = [&](const ProvExpr* child) {
        std::string s = child->ToString(name);
        if (child->kind_ == Kind::kPlus) return "(" + s + ")";
        return s;
      };
      std::string s = wrap(children_[0]);
      for (size_t i = 1; i < num_children_; ++i) s += "*" + wrap(children_[i]);
      return s;
    }
  }
  return "?";
}

}  // namespace xai::rel
