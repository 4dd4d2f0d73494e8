#include "lp/problem.hpp"

#include <gtest/gtest.h>

namespace cellstream::lp {
namespace {

TEST(Problem, AddVariableStoresAttributes) {
  Problem p;
  const VarId v = p.add_variable(0.0, 1.0, 2.5);
  EXPECT_EQ(v, 0u);
  EXPECT_DOUBLE_EQ(p.var_lo(v), 0.0);
  EXPECT_DOUBLE_EQ(p.var_up(v), 1.0);
  EXPECT_DOUBLE_EQ(p.cost(v), 2.5);
}

TEST(Problem, VariableIdsAreSequential) {
  Problem p;
  EXPECT_EQ(p.add_variable(0, 1, 0), 0u);
  EXPECT_EQ(p.add_variable(0, 1, 0), 1u);
  EXPECT_EQ(p.variable_count(), 2u);
}

TEST(Problem, AddVariableRejectsEmptyInterval) {
  Problem p;
  EXPECT_THROW(p.add_variable(1.0, 0.0, 0.0), Error);
}

TEST(Problem, AddRowMergesDuplicateCoefficients) {
  Problem p;
  const VarId v = p.add_variable(0, 10, 0);
  const RowId r = p.add_row(0, 5, {{v, 1.0}, {v, 2.0}});
  ASSERT_EQ(p.row(r).size(), 1u);
  EXPECT_DOUBLE_EQ(p.row(r)[0].value, 3.0);
}

TEST(Problem, AddRowDropsCancelledCoefficients) {
  Problem p;
  const VarId a = p.add_variable(0, 1, 0);
  const VarId b = p.add_variable(0, 1, 0);
  const RowId r = p.add_row(0, 1, {{a, 1.0}, {b, 2.0}, {a, -1.0}});
  ASSERT_EQ(p.row(r).size(), 1u);
  EXPECT_EQ(p.row(r)[0].var, b);
}

TEST(Problem, AddRowValidates) {
  Problem p;
  p.add_variable(0, 1, 0);
  EXPECT_THROW(p.add_row(0, 1, {{5, 1.0}}), Error);
  EXPECT_THROW(p.add_row(2, 1, {{0, 1.0}}), Error);
  EXPECT_THROW(p.add_row(0, 1, {{0, kInfinity}}), Error);
}

TEST(Problem, ObjectiveValue) {
  Problem p;
  p.add_variable(0, 1, 2.0);
  p.add_variable(0, 1, -1.0);
  EXPECT_DOUBLE_EQ(p.objective_value({0.5, 1.0}), 0.0);
  EXPECT_THROW(p.objective_value({0.5}), Error);
}

TEST(Problem, MaxViolationOnFeasiblePointIsZero) {
  Problem p;
  const VarId a = p.add_variable(0, 1, 0);
  const VarId b = p.add_variable(0, 1, 0);
  p.add_row(-kInfinity, 1.5, {{a, 1.0}, {b, 1.0}});
  EXPECT_DOUBLE_EQ(p.max_violation({0.5, 0.5}), 0.0);
}

TEST(Problem, MaxViolationReportsWorstBreach) {
  Problem p;
  const VarId a = p.add_variable(0, 1, 0);
  p.add_row(2.0, kInfinity, {{a, 1.0}});  // needs a >= 2 but a <= 1
  // At a = 1: row short by 1.0; at a = 3: variable bound breached by 2.0.
  EXPECT_DOUBLE_EQ(p.max_violation({1.0}), 1.0);
  EXPECT_DOUBLE_EQ(p.max_violation({3.0}), 2.0);
}

TEST(Problem, SetVariableBounds) {
  Problem p;
  const VarId v = p.add_variable(0, 1, 0);
  p.set_variable_bounds(v, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(p.var_lo(v), 1.0);
  EXPECT_THROW(p.set_variable_bounds(v, 2.0, 1.0), Error);
  EXPECT_THROW(p.set_variable_bounds(9, 0.0, 1.0), Error);
}

}  // namespace
}  // namespace cellstream::lp
