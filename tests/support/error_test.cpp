#include "support/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace cellstream {
namespace {

TEST(Ensure, PassesOnTrue) {
  EXPECT_NO_THROW(CS_ENSURE(1 + 1 == 2, "math works"));
}

TEST(Ensure, ThrowsErrorOnFalse) {
  EXPECT_THROW(CS_ENSURE(false, "boom"), Error);
}

TEST(Ensure, MessageContainsContext) {
  try {
    CS_ENSURE(2 < 1, "ordering violated");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "ordering violated");
    const std::string context = e.context();
    EXPECT_NE(context.find("2 < 1"), std::string::npos);
    EXPECT_NE(context.find("error_test.cpp"), std::string::npos);
  }
}

TEST(Error, PlainErrorHasNoContext) {
  const Error error("bad input");
  EXPECT_STREQ(error.what(), "bad input");
  EXPECT_STREQ(error.context(), "");
}

TEST(Error, IsARuntimeError) {
  EXPECT_THROW(throw Error("x"), std::runtime_error);
}

}  // namespace
}  // namespace cellstream
