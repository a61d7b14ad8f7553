// Tests for the structured trace sink.

#include <gtest/gtest.h>

#include "sim/trace.hpp"

namespace pran::sim {
namespace {

TEST(Trace, RecordsInOrder) {
  Trace t;
  t.emit(10, "a", "first");
  t.emit(20, "b", "second");
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[0].message, "first");
  EXPECT_EQ(t.records()[1].at, 20);
}

TEST(Trace, CountByCategory) {
  Trace t;
  t.emit(1, "ctrl", "x");
  t.emit(2, "fail", "y");
  t.emit(3, "ctrl", "z");
  EXPECT_EQ(t.count("ctrl"), 2u);
  EXPECT_EQ(t.count("fail"), 1u);
  EXPECT_EQ(t.count("none"), 0u);
}

TEST(Trace, RenderMentionsCategoryAndTime) {
  Trace t;
  t.emit(2 * kMillisecond, "controller", "replan done");
  const std::string s = t.render();
  EXPECT_NE(s.find("[controller]"), std::string::npos);
  EXPECT_NE(s.find("replan done"), std::string::npos);
  EXPECT_NE(s.find("2.00 ms"), std::string::npos);
}

}  // namespace
}  // namespace pran::sim
