#include "charm/load_balancer.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "common/rng.hpp"

namespace ehpc::charm {
namespace {

std::vector<LbObject> uniform_objects(int n, double load, int pes) {
  std::vector<LbObject> out;
  for (int i = 0; i < n; ++i) {
    LbObject o;
    o.elem = i;
    o.load = load;
    o.bytes = 1024;
    o.current_pe = i % pes;
    out.push_back(o);
  }
  return out;
}

std::vector<PeId> pes_upto(int n) {
  std::vector<PeId> out(static_cast<std::size_t>(n));
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(NullLb, KeepsObjectsInPlaceWhenPossible) {
  NullLb lb;
  auto objs = uniform_objects(8, 1.0, 4);
  auto assign = lb.assign(objs, pes_upto(4));
  for (std::size_t i = 0; i < objs.size(); ++i) {
    EXPECT_EQ(assign[i], objs[i].current_pe);
  }
}

TEST(NullLb, EvictsFromUnavailablePes) {
  NullLb lb;
  auto objs = uniform_objects(8, 1.0, 4);  // pes 0..3
  auto assign = lb.assign(objs, pes_upto(2));  // pes 2,3 vanish
  for (std::size_t i = 0; i < objs.size(); ++i) {
    EXPECT_LT(assign[i], 2);
  }
}

TEST(GreedyLb, BalancesUniformLoadEvenly) {
  GreedyLb lb;
  auto objs = uniform_objects(16, 1.0, 4);
  auto assign = lb.assign(objs, pes_upto(4));
  EXPECT_NEAR(load_imbalance(objs, assign, pes_upto(4)), 1.0, 1e-9);
}

TEST(GreedyLb, HandlesSkewedLoads) {
  GreedyLb lb;
  std::vector<LbObject> objs;
  for (int i = 0; i < 12; ++i) {
    LbObject o;
    o.elem = i;
    o.load = (i == 0) ? 10.0 : 1.0;  // one heavy object
    o.current_pe = 0;
    objs.push_back(o);
  }
  auto assign = lb.assign(objs, pes_upto(4));
  // The heavy object's PE should host nothing else (or very little).
  const PeId heavy_pe = assign[0];
  double heavy_pe_load = 0.0;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    if (assign[i] == heavy_pe) heavy_pe_load += objs[i].load;
  }
  EXPECT_LE(heavy_pe_load, 11.0);
  EXPECT_LE(load_imbalance(objs, assign, pes_upto(4)), 2.0);
}

TEST(RefineLb, NoMigrationWhenAlreadyBalanced) {
  RefineLb lb;
  auto objs = uniform_objects(8, 1.0, 4);
  auto assign = lb.assign(objs, pes_upto(4));
  int moved = 0;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    if (assign[i] != objs[i].current_pe) ++moved;
  }
  EXPECT_EQ(moved, 0);
}

TEST(RefineLb, MovesLoadOffOverloadedPe) {
  RefineLb lb(1.05);
  std::vector<LbObject> objs;
  for (int i = 0; i < 8; ++i) {
    LbObject o;
    o.elem = i;
    o.load = 1.0;
    o.current_pe = 0;  // everything on PE 0
    objs.push_back(o);
  }
  auto assign = lb.assign(objs, pes_upto(4));
  EXPECT_LE(load_imbalance(objs, assign, pes_upto(4)), 1.5 + 1e-9);
}

TEST(RefineLb, MigratesLessThanGreedy) {
  // Mildly imbalanced start: refine should fix it with fewer moves.
  Rng rng(5);
  std::vector<LbObject> objs;
  for (int i = 0; i < 32; ++i) {
    LbObject o;
    o.elem = i;
    o.load = rng.uniform(0.8, 1.2);
    o.current_pe = i % 8;
    objs.push_back(o);
  }
  GreedyLb greedy;
  RefineLb refine;
  auto count_moves = [&](const LbAssignment& a) {
    int moved = 0;
    for (std::size_t i = 0; i < objs.size(); ++i) {
      if (a[i] != objs[i].current_pe) ++moved;
    }
    return moved;
  };
  EXPECT_LT(count_moves(refine.assign(objs, pes_upto(8))),
            count_moves(greedy.assign(objs, pes_upto(8))));
}

TEST(LoadBalancerFactory, ResolvesNames) {
  EXPECT_EQ(make_load_balancer("null")->name(), "NullLB");
  EXPECT_EQ(make_load_balancer("greedy")->name(), "GreedyLB");
  EXPECT_EQ(make_load_balancer("refine")->name(), "RefineLB");
  EXPECT_THROW(make_load_balancer("bogus"), PreconditionError);
}

TEST(LoadImbalance, PerfectBalanceIsOne) {
  auto objs = uniform_objects(4, 1.0, 4);
  LbAssignment a{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(load_imbalance(objs, a, pes_upto(4)), 1.0);
}

TEST(LoadImbalance, AllOnOnePe) {
  auto objs = uniform_objects(4, 1.0, 4);
  LbAssignment a{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(load_imbalance(objs, a, pes_upto(4)), 4.0);
}

// Property sweep: every strategy must produce a legal assignment (all PEs in
// the available set) and tolerable imbalance for random inputs.
struct LbCase {
  const char* strategy;
  int objects;
  int from_pes;
  int to_pes;
  unsigned seed;
};

// Names each case in the test list. Without it gtest dumps the raw bytes,
// which include the `strategy` pointer and so change from build to build.
void PrintTo(const LbCase& c, std::ostream* os) {
  *os << c.strategy << ' ' << c.objects << " objs " << c.from_pes << "->" << c.to_pes
      << " PEs seed " << c.seed;
}

class LbProperty : public ::testing::TestWithParam<LbCase> {};

TEST_P(LbProperty, LegalAndReasonablyBalanced) {
  const LbCase& c = GetParam();
  Rng rng(c.seed);
  std::vector<LbObject> objs;
  for (int i = 0; i < c.objects; ++i) {
    LbObject o;
    o.elem = i;
    o.load = rng.uniform(0.1, 2.0);
    o.bytes = static_cast<std::size_t>(rng.uniform_int(64, 1 << 16));
    o.current_pe = static_cast<PeId>(rng.uniform_int(0, c.from_pes - 1));
    objs.push_back(o);
  }
  auto lb = make_load_balancer(c.strategy);
  auto avail = pes_upto(c.to_pes);
  auto assign = lb->assign(objs, avail);
  ASSERT_EQ(assign.size(), objs.size());
  for (PeId pe : assign) {
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, c.to_pes);
  }
  // With >= 4 objects per PE, no strategy should be worse than 4x imbalance.
  if (c.objects >= 4 * c.to_pes && std::string(c.strategy) != "null") {
    EXPECT_LE(load_imbalance(objs, assign, avail), 4.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LbProperty,
    ::testing::Values(LbCase{"greedy", 64, 8, 8, 1}, LbCase{"greedy", 64, 8, 4, 2},
                      LbCase{"greedy", 64, 4, 8, 3}, LbCase{"greedy", 7, 4, 2, 4},
                      LbCase{"refine", 64, 8, 8, 5}, LbCase{"refine", 64, 8, 4, 6},
                      LbCase{"refine", 64, 4, 8, 7}, LbCase{"refine", 7, 4, 2, 8},
                      LbCase{"null", 64, 8, 4, 9}, LbCase{"null", 16, 4, 4, 10},
                      LbCase{"greedy", 256, 60, 30, 11},
                      LbCase{"refine", 256, 16, 64, 12}));

}  // namespace
}  // namespace ehpc::charm
