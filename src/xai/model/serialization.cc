#include "xai/model/serialization.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace xai {
namespace {

constexpr char kMagic[] = "xai_model";
constexpr char kVersion[] = "v1";

void AppendDouble(std::ostringstream* os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *os << buf;
}

void AppendVector(std::ostringstream* os, const char* name,
                  const Vector& v) {
  *os << name << " " << v.size();
  for (double x : v) {
    *os << " ";
    AppendDouble(os, x);
  }
  *os << "\n";
}

void AppendTree(std::ostringstream* os, const Tree& tree) {
  *os << "tree " << tree.num_nodes() << "\n";
  for (const TreeNode& n : tree.nodes()) {
    *os << "node " << n.feature << " ";
    AppendDouble(os, n.threshold);
    *os << " " << n.left << " " << n.right << " ";
    AppendDouble(os, n.value);
    *os << " ";
    AppendDouble(os, n.cover);
    *os << "\n";
  }
}

/// Tokenizing reader over the serialized text.
class Reader {
 public:
  explicit Reader(const std::string& text) : in_(text) {}

  Result<std::string> Word() {
    std::string w;
    if (!(in_ >> w)) return Status::InvalidArgument("unexpected end of model");
    return w;
  }
  Result<double> Double() {
    double v;
    if (!(in_ >> v)) return Status::InvalidArgument("expected number");
    return v;
  }
  Result<int> Int() {
    int v;
    if (!(in_ >> v)) return Status::InvalidArgument("expected integer");
    return v;
  }
  /// A count of `what`, bounded by the bytes left in the text before the
  /// caller allocates for it: every counted item takes at least two bytes
  /// (a separator and a digit).
  Result<int> Count(const std::string& what) {
    XAI_ASSIGN_OR_RETURN(int n, Int());
    if (n < 0) return Status::InvalidArgument("negative " + what + " count");
    if (n > in_.rdbuf()->in_avail() / 2)
      return Status::InvalidArgument(what + " count exceeds the text");
    return n;
  }
  Status Expect(const std::string& token) {
    XAI_ASSIGN_OR_RETURN(std::string w, Word());
    if (w != token)
      return Status::InvalidArgument("expected '" + token + "', got '" + w +
                                     "'");
    return Status::OK();
  }
  Result<Vector> NamedVector(const std::string& name) {
    XAI_RETURN_NOT_OK(Expect(name));
    XAI_ASSIGN_OR_RETURN(int n, Count(name));
    Vector v(n);
    for (int i = 0; i < n; ++i) {
      XAI_ASSIGN_OR_RETURN(v[i], Double());
    }
    return v;
  }
  Result<Tree> ReadTree() {
    XAI_RETURN_NOT_OK(Expect("tree"));
    XAI_ASSIGN_OR_RETURN(int count, Count("node"));
    if (count == 0) return Status::InvalidArgument("tree has no nodes");
    std::vector<TreeNode> nodes(count);
    for (int i = 0; i < count; ++i) {
      XAI_RETURN_NOT_OK(Expect("node"));
      TreeNode& n = nodes[i];
      XAI_ASSIGN_OR_RETURN(n.feature, Int());
      XAI_ASSIGN_OR_RETURN(n.threshold, Double());
      XAI_ASSIGN_OR_RETURN(n.left, Int());
      XAI_ASSIGN_OR_RETURN(n.right, Int());
      XAI_ASSIGN_OR_RETURN(n.value, Double());
      XAI_ASSIGN_OR_RETURN(n.cover, Double());
      if (!n.IsLeaf() &&
          (n.left < 0 || n.left >= count || n.right < 0 || n.right >= count))
        return Status::InvalidArgument("tree child index out of range");
    }
    // A tree, not a graph: walking from the root must reach no node twice,
    // which rules out cycles and shared subtrees alike.
    std::vector<bool> seen(count, false);
    std::vector<int> stack = {0};
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      if (seen[i]) return Status::InvalidArgument("tree node reached twice");
      seen[i] = true;
      if (!nodes[i].IsLeaf()) {
        stack.push_back(nodes[i].left);
        stack.push_back(nodes[i].right);
      }
    }
    return Tree(std::move(nodes));
  }
  Status Header(const std::string& kind, std::string* task = nullptr) {
    XAI_RETURN_NOT_OK(Expect(kMagic));
    XAI_RETURN_NOT_OK(Expect(kVersion));
    XAI_RETURN_NOT_OK(Expect(kind));
    if (task != nullptr) {
      XAI_ASSIGN_OR_RETURN(*task, Word());
      if (*task != "classification" && *task != "regression")
        return Status::InvalidArgument("bad task tag: " + *task);
    }
    return Status::OK();
  }

 private:
  std::istringstream in_;
};

const char* TaskTag(TaskType task) {
  return task == TaskType::kClassification ? "classification"
                                           : "regression";
}

TaskType TagToTask(const std::string& tag) {
  return tag == "classification" ? TaskType::kClassification
                                 : TaskType::kRegression;
}

}  // namespace

std::string SerializeModel(const LinearRegressionModel& model) {
  std::ostringstream os;
  os << kMagic << " " << kVersion << " linear_regression\n";
  AppendVector(&os, "weights", model.weights());
  os << "bias ";
  AppendDouble(&os, model.bias());
  os << "\nl2 ";
  AppendDouble(&os, model.config().l2);
  os << "\n";
  return os.str();
}

Result<LinearRegressionModel> DeserializeLinearRegression(
    const std::string& text) {
  Reader r(text);
  XAI_RETURN_NOT_OK(r.Header("linear_regression"));
  XAI_ASSIGN_OR_RETURN(Vector weights, r.NamedVector("weights"));
  XAI_RETURN_NOT_OK(r.Expect("bias"));
  XAI_ASSIGN_OR_RETURN(double bias, r.Double());
  XAI_RETURN_NOT_OK(r.Expect("l2"));
  XAI_ASSIGN_OR_RETURN(double l2, r.Double());
  return LinearRegressionModel::FromCoefficients(std::move(weights), bias,
                                                 {l2});
}

std::string SerializeModel(const LogisticRegressionModel& model) {
  std::ostringstream os;
  os << kMagic << " " << kVersion << " logistic_regression\n";
  AppendVector(&os, "weights", model.weights());
  os << "bias ";
  AppendDouble(&os, model.bias());
  os << "\nl2 ";
  AppendDouble(&os, model.config().l2);
  os << "\n";
  return os.str();
}

Result<LogisticRegressionModel> DeserializeLogisticRegression(
    const std::string& text) {
  Reader r(text);
  XAI_RETURN_NOT_OK(r.Header("logistic_regression"));
  XAI_ASSIGN_OR_RETURN(Vector weights, r.NamedVector("weights"));
  XAI_RETURN_NOT_OK(r.Expect("bias"));
  XAI_ASSIGN_OR_RETURN(double bias, r.Double());
  XAI_RETURN_NOT_OK(r.Expect("l2"));
  XAI_ASSIGN_OR_RETURN(double l2, r.Double());
  LogisticRegressionConfig config;
  config.l2 = l2;
  return LogisticRegressionModel::FromCoefficients(std::move(weights), bias,
                                                   config);
}

std::string SerializeModel(const DecisionTreeModel& model) {
  std::ostringstream os;
  os << kMagic << " " << kVersion << " decision_tree "
     << TaskTag(model.task()) << "\n";
  AppendTree(&os, model.tree());
  return os.str();
}

Result<DecisionTreeModel> DeserializeDecisionTree(const std::string& text) {
  Reader r(text);
  std::string task;
  XAI_RETURN_NOT_OK(r.Header("decision_tree", &task));
  XAI_ASSIGN_OR_RETURN(Tree tree, r.ReadTree());
  return DecisionTreeModel::FromTree(std::move(tree), TagToTask(task));
}

std::string SerializeModel(const RandomForestModel& model) {
  std::ostringstream os;
  os << kMagic << " " << kVersion << " random_forest "
     << TaskTag(model.task()) << "\ntrees " << model.trees().size() << "\n";
  for (const Tree& tree : model.trees()) AppendTree(&os, tree);
  return os.str();
}

Result<RandomForestModel> DeserializeRandomForest(const std::string& text) {
  Reader r(text);
  std::string task;
  XAI_RETURN_NOT_OK(r.Header("random_forest", &task));
  XAI_RETURN_NOT_OK(r.Expect("trees"));
  XAI_ASSIGN_OR_RETURN(int count, r.Count("tree"));
  std::vector<Tree> trees;
  for (int t = 0; t < count; ++t) {
    XAI_ASSIGN_OR_RETURN(Tree tree, r.ReadTree());
    trees.push_back(std::move(tree));
  }
  return RandomForestModel::FromTrees(std::move(trees), TagToTask(task));
}

std::string SerializeModel(const GbdtModel& model) {
  std::ostringstream os;
  os << kMagic << " " << kVersion << " gbdt " << TaskTag(model.task())
     << "\nbase_score ";
  AppendDouble(&os, model.base_score());
  os << "\nlearning_rate ";
  AppendDouble(&os, model.config().learning_rate);
  os << "\ntrees " << model.trees().size() << "\n";
  for (const Tree& tree : model.trees()) AppendTree(&os, tree);
  return os.str();
}

Result<GbdtModel> DeserializeGbdt(const std::string& text) {
  Reader r(text);
  std::string task;
  XAI_RETURN_NOT_OK(r.Header("gbdt", &task));
  XAI_RETURN_NOT_OK(r.Expect("base_score"));
  XAI_ASSIGN_OR_RETURN(double base_score, r.Double());
  XAI_RETURN_NOT_OK(r.Expect("learning_rate"));
  XAI_ASSIGN_OR_RETURN(double lr, r.Double());
  XAI_RETURN_NOT_OK(r.Expect("trees"));
  XAI_ASSIGN_OR_RETURN(int count, r.Count("tree"));
  std::vector<Tree> trees;
  for (int t = 0; t < count; ++t) {
    XAI_ASSIGN_OR_RETURN(Tree tree, r.ReadTree());
    trees.push_back(std::move(tree));
  }
  GbdtModel::Config config;
  config.learning_rate = lr;
  config.n_trees = count;
  return GbdtModel::FromParts(std::move(trees), base_score,
                              TagToTask(task), config);
}

uint64_t ContentHash64(const void* data, size_t len, uint64_t seed) {
  // FNV-1a, 64-bit: hash = (hash ^ byte) * prime, byte-at-a-time. Simple,
  // allocation-free, and stable by construction.
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t hash = seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

uint64_t ContentHash64(const std::string& s, uint64_t seed) {
  return ContentHash64(s.data(), s.size(), seed);
}

uint64_t ContentHash64(const Vector& v, uint64_t seed) {
  return v.empty() ? seed
                   : ContentHash64(v.data(), v.size() * sizeof(double), seed);
}

uint64_t Fingerprint(const std::string& serialized) {
  return ContentHash64(serialized);
}

uint64_t Fingerprint(const LinearRegressionModel& model) {
  return Fingerprint(SerializeModel(model));
}
uint64_t Fingerprint(const LogisticRegressionModel& model) {
  return Fingerprint(SerializeModel(model));
}
uint64_t Fingerprint(const DecisionTreeModel& model) {
  return Fingerprint(SerializeModel(model));
}
uint64_t Fingerprint(const RandomForestModel& model) {
  return Fingerprint(SerializeModel(model));
}
uint64_t Fingerprint(const GbdtModel& model) {
  return Fingerprint(SerializeModel(model));
}

Result<std::string> PeekModelKind(const std::string& text) {
  Reader r(text);
  XAI_RETURN_NOT_OK(r.Expect(kMagic));
  XAI_RETURN_NOT_OK(r.Expect(kVersion));
  return r.Word();
}

Status SaveModelToFile(const std::string& serialized,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << serialized;
  return Status::OK();
}

Result<std::string> LoadModelFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace xai
