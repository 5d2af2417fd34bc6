#include "util/strings.h"

#include <gtest/gtest.h>

namespace vpna::util {
namespace {

TEST(Split, BasicFields) {
  const auto v = split("a,b,c", ',');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto v = split("a,,c,", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[3], "");
}

TEST(Split, FieldsViewTheInput) {
  const std::string text = "key=value";
  const auto v = split(text, '=');
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].data(), text.data());
  EXPECT_EQ(v[1].data(), text.data() + 4);
}

TEST(Split, SingleField) {
  const auto v = split("abc", ',');
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "abc");
}

TEST(SplitExact, ExactFieldCountOnly) {
  const auto three = split_exact<3>("a||c", '|');
  ASSERT_TRUE(three.has_value());
  EXPECT_EQ((*three)[0], "a");
  EXPECT_EQ((*three)[1], "");
  EXPECT_EQ((*three)[2], "c");
  EXPECT_FALSE(split_exact<3>("a|b", '|'));
  EXPECT_FALSE(split_exact<3>("a|b|c|", '|'));
  EXPECT_TRUE(split_exact<1>("", '|'));
  EXPECT_FALSE(split_exact<2>("", '|'));
}

TEST(SplitExact, FieldsViewTheInput) {
  const std::string text = "key=value";
  const auto v = split_exact<2>(text, '=');
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0].data(), text.data());
  EXPECT_EQ((*v)[1].data(), text.data() + 4);
}

TEST(ForEachField, VisitsEveryFieldAndStopsEarly) {
  std::vector<std::string_view> seen;
  EXPECT_TRUE(for_each_field("a,,c,", ',', [&](std::string_view f) {
    seen.push_back(f);
    return true;
  }));
  EXPECT_EQ(seen, split("a,,c,", ','));
  seen.clear();
  EXPECT_FALSE(for_each_field("a,b,c", ',', [&](std::string_view f) {
    seen.push_back(f);
    return f != "b";
  }));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, "-"), "x-y-z");
  const auto joined = join(parts, ",");
  const std::vector<std::string_view> fields(parts.begin(), parts.end());
  EXPECT_EQ(split(joined, ','), fields);
}

TEST(Join, EmptyVector) { EXPECT_EQ(join({}, ","), ""); }

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("HeLLo-123"), "hello-123");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_TRUE(contains("abcdef", "cde"));
  EXPECT_FALSE(contains("abcdef", "xyz"));
}

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("plain"), "plain");
}

TEST(Format, LongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(format("%s", big.c_str()).size(), 500u);
}

}  // namespace
}  // namespace vpna::util
