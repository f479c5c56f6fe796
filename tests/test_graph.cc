// Dataflow graph substrate tests: construction, shape inference, traversal, validation
// and DOT export.
#include <gtest/gtest.h>

#include "tofu/graph/dot.h"
#include "tofu/graph/graph.h"
#include "tofu/graph/traversal.h"

namespace tofu {
namespace {

TEST(Graph, BuildSmallChain) {
  Graph g;
  TensorId x = g.AddInput("x", {8, 16});
  TensorId w = g.AddParam("w", {16, 32});
  TensorId y = g.AddOp("matmul", {}, {x, w});
  TensorId z = g.AddOp("relu", {}, {y});

  EXPECT_EQ(g.num_ops(), 2);
  EXPECT_EQ(g.num_tensors(), 4);
  EXPECT_EQ(g.tensor(y).shape, (Shape{8, 32}));
  EXPECT_EQ(g.tensor(z).shape, (Shape{8, 32}));
  EXPECT_EQ(g.tensor(y).producer, 0);
  ASSERT_EQ(g.tensor(y).consumers.size(), 1u);
  EXPECT_EQ(g.tensor(y).consumers[0], 1);
  EXPECT_TRUE(g.tensor(w).is_param);
  EXPECT_TRUE(g.tensor(w).requires_grad);
  EXPECT_TRUE(g.tensor(x).is_input);
  ValidateGraph(g);
}

TEST(Graph, ParamAccounting) {
  Graph g;
  g.AddParam("a", {10, 10});
  g.AddParam("b", {5});
  g.AddOptState("h", {10, 10});
  EXPECT_EQ(g.TotalParamBytes(), (100 + 5) * 4);
  EXPECT_EQ(g.TotalOptStateBytes(), 100 * 4);
  EXPECT_EQ(g.ParamIds().size(), 2u);
}

TEST(Graph, SemanticsOfUsesInstanceRanks) {
  Graph g;
  TensorId a = g.AddInput("a", {4, 4, 4});
  TensorId b = g.AddInput("b", {4, 4, 4});
  TensorId c = g.AddOp("add", {}, {a, b});
  const OpSemantics& sem = g.SemanticsOf(g.op(g.tensor(c).producer));
  EXPECT_EQ(sem.desc.num_output_dims, 3);
  EXPECT_TRUE(sem.desc.elementwise);
}

TEST(Graph, MutableOpAccessClearsItsMemoizedSemantics) {
  Graph g;
  TensorId x = g.AddInput("x", {8, 16});
  TensorId w = g.AddParam("w", {16, 32});
  const OpId matmul = g.tensor(g.AddOp("matmul", {}, {x, w})).producer;
  const Graph& view = g;
  EXPECT_EQ(view.ResolvedSemantics(matmul), nullptr);
  const OpSemantics& sem = view.SemanticsOf(view.op(matmul));
  EXPECT_EQ(view.ResolvedSemantics(matmul), &sem);
  g.op(matmul).type = "relu";  // a write the memo must not outlive
  EXPECT_EQ(view.ResolvedSemantics(matmul), nullptr);
}

TEST(Traversal, TopoOrderRespectsDependencies) {
  Graph g;
  TensorId x = g.AddInput("x", {8, 16});
  TensorId w1 = g.AddParam("w1", {16, 16});
  TensorId w2 = g.AddParam("w2", {16, 16});
  TensorId y1 = g.AddOp("matmul", {}, {x, w1});   // op 0
  TensorId y2 = g.AddOp("matmul", {}, {y1, w2});  // op 1
  TensorId y3 = g.AddOp("add", {}, {y1, y2});     // op 2
  (void)y3;

  std::vector<OpId> order = TopoOrder(g);
  ASSERT_EQ(order.size(), 3u);
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    position[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[1], position[2]);

  std::vector<OpId> reverse = ReverseTopoOrder(g);
  EXPECT_EQ(reverse.front(), order.back());
}

TEST(Traversal, AncestorOpsStopsAtTarget) {
  Graph g;
  TensorId x = g.AddInput("x", {4, 4});
  TensorId y = g.AddOp("relu", {}, {x});
  TensorId z = g.AddOp("relu", {}, {y});
  g.AddOp("relu", {}, {z});  // not an ancestor of z

  std::vector<bool> mark = AncestorOps(g, z);
  EXPECT_TRUE(mark[0]);
  EXPECT_TRUE(mark[1]);
  EXPECT_FALSE(mark[2]);
}

TEST(Traversal, NeedsGradFollowsParams) {
  Graph g;
  TensorId x = g.AddInput("x", {4, 8});
  TensorId w = g.AddParam("w", {8, 8});
  TensorId y = g.AddOp("matmul", {}, {x, w});
  TensorId side = g.AddOp("relu", {}, {x});  // no param beneath
  (void)side;
  std::vector<bool> needs = NeedsGrad(g, y);
  EXPECT_TRUE(needs[static_cast<size_t>(w)]);
  EXPECT_TRUE(needs[static_cast<size_t>(y)]);
  EXPECT_FALSE(needs[static_cast<size_t>(x)]);
  EXPECT_FALSE(needs[static_cast<size_t>(side)]);
}

TEST(Dot, ExportMentionsOpsAndTensors) {
  Graph g;
  TensorId x = g.AddInput("data", {4, 8});
  TensorId w = g.AddParam("weight", {8, 8});
  g.AddOp("matmul", {}, {x, w});
  std::string dot = ToDot(g, "unit");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("matmul"), std::string::npos);
  EXPECT_NE(dot.find("weight"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(GraphDeath, UnknownOpTypeAborts) {
  Graph g;
  TensorId x = g.AddInput("x", {4});
  EXPECT_DEATH(g.AddOp("no_such_op", {}, {x}), "unregistered op type");
}

TEST(GraphDeath, ShapeMismatchAborts) {
  Graph g;
  TensorId a = g.AddInput("a", {4, 8});
  TensorId b = g.AddInput("b", {16, 4});
  EXPECT_DEATH(g.AddOp("matmul", {}, {a, b}), "mismatch");
}

}  // namespace
}  // namespace tofu
