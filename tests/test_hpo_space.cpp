// Search-space tests: the paper's Listing 1 format, range extensions,
// enumeration, sampling and GP encoding.
#include <gtest/gtest.h>

#include <set>

#include "hpo/search_space.hpp"

namespace chpo::hpo {
namespace {

constexpr const char* kListing1 = R"({
  "optimizer": ["Adam", "SGD", "RMSprop"],
  "num_epochs": [20, 50, 100],
  "batch_size": [32, 64, 128]
})";

TEST(SearchSpace, ParsesListing1) {
  const SearchSpace space = SearchSpace::from_json_text(kListing1);
  EXPECT_EQ(space.size(), 3u);
  ASSERT_NE(space.find("optimizer"), nullptr);
  EXPECT_TRUE(space.find("optimizer")->is_categorical());
  EXPECT_EQ(space.grid_size(), 27u);
}

TEST(SearchSpace, GridEnumerates27UniqueConfigs) {
  const SearchSpace space = SearchSpace::from_json_text(kListing1);
  const auto grid = space.enumerate_grid();
  ASSERT_EQ(grid.size(), 27u);
  std::set<std::string> unique;
  for (const auto& config : grid) unique.insert(json::serialize(config));
  EXPECT_EQ(unique.size(), 27u);
  // Every config holds all three keys with values from the domains.
  for (const auto& config : grid) {
    const std::string opt = config_string(config, "optimizer");
    EXPECT_TRUE(opt == "Adam" || opt == "SGD" || opt == "RMSprop");
    const auto epochs = config_int(config, "num_epochs");
    EXPECT_TRUE(epochs == 20 || epochs == 50 || epochs == 100);
  }
}

TEST(SearchSpace, GridOrderIsRowMajor) {
  const SearchSpace space = SearchSpace::from_json_text(kListing1);
  const auto grid = space.enumerate_grid();
  // Last dimension (batch_size) varies fastest.
  EXPECT_EQ(config_int(grid[0], "batch_size"), 32);
  EXPECT_EQ(config_int(grid[1], "batch_size"), 64);
  EXPECT_EQ(config_string(grid[0], "optimizer"), config_string(grid[8], "optimizer"));
  EXPECT_NE(config_string(grid[0], "optimizer"), config_string(grid[9], "optimizer"));
}

TEST(SearchSpace, IntRangeDomain) {
  SearchSpace space;
  space.add_int("hidden", 16, 19);
  EXPECT_EQ(space.grid_size(), 4u);
  const auto grid = space.enumerate_grid();
  EXPECT_EQ(config_int(grid[0], "hidden"), 16);
  EXPECT_EQ(config_int(grid[3], "hidden"), 19);
}

TEST(SearchSpace, FloatRangeBlocksGridEnumeration) {
  SearchSpace space;
  space.add_float("lr", 1e-4, 1e-1, true);
  EXPECT_FALSE(space.grid_size().has_value());
  EXPECT_THROW(space.enumerate_grid(), std::logic_error);
}

TEST(SearchSpace, RangeObjectsFromJson) {
  const SearchSpace space = SearchSpace::from_json_text(R"({
    "learning_rate": {"type": "float", "min": 0.0001, "max": 0.1, "log": true},
    "hidden": {"type": "int", "min": 16, "max": 256}
  })");
  EXPECT_EQ(space.size(), 2u);
  EXPECT_FALSE(space.find("learning_rate")->is_categorical());
}

TEST(SearchSpace, SampleStaysInDomains) {
  SearchSpace space = SearchSpace::from_json_text(kListing1);
  space.add_float("lr", 1e-4, 1e-1, true);
  space.add_int("hidden", 8, 64);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Config c = space.sample(rng);
    const double lr = config_double(c, "lr");
    EXPECT_GE(lr, 1e-4);
    EXPECT_LE(lr, 1e-1);
    const auto hidden = config_int(c, "hidden");
    EXPECT_GE(hidden, 8);
    EXPECT_LE(hidden, 64);
    const auto batch = config_int(c, "batch_size");
    EXPECT_TRUE(batch == 32 || batch == 64 || batch == 128);
  }
}

TEST(SearchSpace, LogSamplingCoversDecades) {
  SearchSpace space;
  space.add_float("lr", 1e-4, 1e-1, true);
  Rng rng(6);
  int tiny = 0;
  for (int i = 0; i < 500; ++i)
    if (config_double(space.sample(rng), "lr") < 1e-3) ++tiny;
  // Log-uniform: ~1/3 of samples under 1e-3; linear-uniform would give ~1%.
  EXPECT_GT(tiny, 100);
}

TEST(SearchSpace, EncodeWidthAndValues) {
  SearchSpace space = SearchSpace::from_json_text(kListing1);
  space.add_float("lr", 0.0, 1.0);
  EXPECT_EQ(space.encoded_width(), 3u + 3 + 3 + 1);
  Rng rng(7);
  Config c = space.sample(rng);
  const auto x = space.encode(c);
  ASSERT_EQ(x.size(), 10u);
  // Each categorical block one-hot sums to 1.
  EXPECT_DOUBLE_EQ(x[0] + x[1] + x[2], 1.0);
  EXPECT_DOUBLE_EQ(x[3] + x[4] + x[5], 1.0);
  for (double v : x) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SearchSpace, EncodeIsDeterministicPerConfig) {
  const SearchSpace space = SearchSpace::from_json_text(kListing1);
  const auto grid = space.enumerate_grid();
  EXPECT_EQ(space.encode(grid[5]), space.encode(grid[5]));
  EXPECT_NE(space.encode(grid[5]), space.encode(grid[6]));
}

TEST(SearchSpace, MalformedJsonRejected) {
  EXPECT_THROW(SearchSpace::from_json_text("not json"), json::JsonError);
  EXPECT_THROW(SearchSpace::from_json_text("{}"), json::JsonError);
  EXPECT_THROW(SearchSpace::from_json_text(R"({"a": []})"), json::JsonError);
  EXPECT_THROW(SearchSpace::from_json_text(R"({"a": 5})"), json::JsonError);
  EXPECT_THROW(SearchSpace::from_json_text(R"({"a": {"type": "enum"}})"), json::JsonError);
}

TEST(SearchSpace, InvalidRangesRejected) {
  SearchSpace space;
  EXPECT_THROW(space.add_int("x", 10, 5), std::invalid_argument);
  EXPECT_THROW(space.add_float("y", 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(space.add_float("z", 0.0, 1.0, /*log=*/true), std::invalid_argument);
}

// ------------------------------------------------- conditional dimensions

SearchSpace conditional_space() {
  SearchSpace space;
  space.add_categorical("optimizer", {json::Value("Adam"), json::Value("SGD")});
  space.add_float("momentum", 0.0, 0.99);
  space.make_conditional("optimizer", json::Value("SGD"));
  space.add_categorical("batch_size", {json::Value(16), json::Value(32)});
  return space;
}

TEST(Conditional, SampleOmitsInactiveDimension) {
  const SearchSpace space = conditional_space();
  Rng rng(1);
  int with = 0, without = 0;
  for (int i = 0; i < 200; ++i) {
    const Config c = space.sample(rng);
    if (config_string(c, "optimizer") == "SGD") {
      EXPECT_TRUE(c.contains("momentum"));
      const double m = config_double(c, "momentum");
      EXPECT_GE(m, 0.0);
      EXPECT_LE(m, 0.99);
      ++with;
    } else {
      EXPECT_FALSE(c.contains("momentum"));
      ++without;
    }
  }
  EXPECT_GT(with, 50);
  EXPECT_GT(without, 50);
}

TEST(Conditional, GridCollapsesInactiveCombinations) {
  SearchSpace space;
  space.add_categorical("optimizer", {json::Value("Adam"), json::Value("SGD")});
  space.add_categorical("momentum", {json::Value(0.0), json::Value(0.9)});
  space.make_conditional("optimizer", json::Value("SGD"));
  // Raw product is 4, but Adam's two momentum variants collapse into one.
  const auto grid = space.enumerate_grid();
  EXPECT_EQ(grid.size(), 3u);
  EXPECT_EQ(space.grid_size(), 3u);
  int adam = 0;
  for (const Config& c : grid)
    if (config_string(c, "optimizer") == "Adam") {
      EXPECT_FALSE(c.contains("momentum"));
      ++adam;
    }
  EXPECT_EQ(adam, 1);
}

TEST(Conditional, EncodeZeroesInactiveBlock) {
  const SearchSpace space = conditional_space();
  Config adam;
  adam.set("optimizer", json::Value("Adam"));
  adam.set("batch_size", json::Value(16));
  const auto x = space.encode(adam);
  // Blocks: optimizer one-hot (2) + momentum scalar (1) + batch one-hot (2).
  ASSERT_EQ(x.size(), 5u);
  EXPECT_DOUBLE_EQ(x[2], 0.0);  // inactive momentum
}

TEST(Conditional, FromJsonConditionSyntax) {
  const SearchSpace space = SearchSpace::from_json_text(R"({
    "optimizer": ["Adam", "SGD"],
    "momentum": {"type": "float", "min": 0.0, "max": 0.99,
                 "condition": {"parent": "optimizer", "equals": "SGD"}}
  })");
  ASSERT_NE(space.find("momentum"), nullptr);
  ASSERT_TRUE(space.find("momentum")->condition.has_value());
  EXPECT_EQ(space.find("momentum")->condition->parent, "optimizer");
}

TEST(Conditional, CategoricalObjectForm) {
  const SearchSpace space = SearchSpace::from_json_text(R"({
    "optimizer": {"type": "categorical", "values": ["Adam", "SGD"]}
  })");
  EXPECT_TRUE(space.find("optimizer")->is_categorical());
}

TEST(Conditional, ValidationErrors) {
  SearchSpace space;
  EXPECT_THROW(space.make_conditional("x", json::Value(1)), std::logic_error);
  space.add_categorical("optimizer", {json::Value("Adam")});
  space.add_float("lr", 0.1, 1.0);
  EXPECT_THROW(space.make_conditional("nope", json::Value("Adam")), std::invalid_argument);
  EXPECT_THROW(space.make_conditional("optimizer", json::Value("SGD")), std::invalid_argument);
  space.add_float("other", 0.1, 1.0);
  EXPECT_THROW(space.make_conditional("lr", json::Value(0.5)), std::invalid_argument);  // non-categorical parent
}

TEST(Conditional, IsActiveQueries) {
  const SearchSpace space = conditional_space();
  const Dimension* momentum = space.find("momentum");
  ASSERT_NE(momentum, nullptr);
  Config sgd;
  sgd.set("optimizer", json::Value("SGD"));
  Config adam;
  adam.set("optimizer", json::Value("Adam"));
  EXPECT_TRUE(space.is_active(*momentum, sgd));
  EXPECT_FALSE(space.is_active(*momentum, adam));
  EXPECT_TRUE(space.is_active(*space.find("optimizer"), adam));
}

TEST(ConfigHelpers, BriefAndTypedAccess) {
  const Config c = json::parse(R"({"optimizer": "SGD", "num_epochs": 20})");
  EXPECT_EQ(config_string(c, "optimizer"), "SGD");
  EXPECT_EQ(config_int(c, "num_epochs"), 20);
  EXPECT_EQ(config_brief(c), "optimizer=\"SGD\" num_epochs=20");
  EXPECT_THROW(config_string(c, "missing"), json::JsonError);
}

}  // namespace
}  // namespace chpo::hpo
