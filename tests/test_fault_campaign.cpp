#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "fault/campaign.hpp"

namespace hhc::fault {
namespace {

CampaignConfig small_config() {
  CampaignConfig config;
  config.m = 2;
  config.trials = 40;
  config.max_faults = 5;  // past m + 1 = 3
  config.seed = 7;
  return config;
}

TEST(FaultCampaign, GuaranteeHoldsUpToMFaults) {
  const auto report = CampaignRunner{small_config()}.run();
  ASSERT_EQ(report.rows.size(), 6u);
  for (const auto& row : report.rows) {
    if (row.faults <= 2) {  // |F| <= m: the paper's regime
      EXPECT_EQ(row.guaranteed, row.trials) << "f=" << row.faults;
      EXPECT_DOUBLE_EQ(row.success_rate(), 1.0);
      EXPECT_EQ(row.best_effort, 0u);
      EXPECT_EQ(row.disconnected, 0u);
    }
  }
}

TEST(FaultCampaign, FaultFreeRowHasNoInflation) {
  // Inflation is measured against the shortest member of the container the
  // router scans, so a fault-free trial, which the router serves with that
  // member, reads exactly 1.
  for (const unsigned m : {2U, 3U, 4U}) {
    CampaignConfig config;
    config.m = m;
    config.trials = 30;
    config.max_faults = 1;
    config.seed = 11;
    const auto report = CampaignRunner{config}.run();
    ASSERT_EQ(report.rows.front().faults, 0u);
    EXPECT_EQ(report.rows.front().guaranteed_rate(), 1.0) << "m=" << m;
    EXPECT_EQ(report.rows.front().avg_inflation, 1.0) << "m=" << m;
  }
}

TEST(FaultCampaign, EveryTrialIsAccountedFor) {
  const auto report = CampaignRunner{small_config()}.run();
  for (const auto& row : report.rows) {
    EXPECT_EQ(row.guaranteed + row.best_effort + row.disconnected, row.trials);
    EXPECT_EQ(row.node_faults + row.link_faults, row.faults);
  }
}

TEST(FaultCampaign, BeyondGuaranteeDegradesGracefully) {
  auto config = small_config();
  config.trials = 150;
  config.max_faults = 8;
  const auto report = CampaignRunner{config}.run();
  std::size_t fallbacks = 0;
  for (const auto& row : report.rows) {
    if (row.faults > 2) fallbacks += row.best_effort;
    if (row.delivered() > 0) {
      EXPECT_GT(row.avg_inflation, 0.0);
    }
  }
  // Past the guarantee the BFS fallback must actually rescue some trials
  // (blocked container but connected survivor subgraph).
  EXPECT_GT(fallbacks, 0u);
}

TEST(FaultCampaign, LinkFaultsEngageFallbackEarly) {
  auto config = small_config();
  config.trials = 120;
  config.link_fault_fraction = 1.0;  // every fault is a link fault
  const auto report = CampaignRunner{config}.run();
  std::size_t fallbacks = 0;
  for (const auto& row : report.rows) {
    EXPECT_EQ(row.node_faults, 0u);
    EXPECT_EQ(row.link_faults, row.faults);
    fallbacks += row.best_effort;
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(FaultCampaign, DeterministicAcrossThreadCounts) {
  auto serial = small_config();
  serial.threads = 1;
  auto parallel = small_config();
  parallel.threads = 4;
  const auto a = CampaignRunner{serial}.run();
  const auto b = CampaignRunner{parallel}.run();
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].guaranteed, b.rows[i].guaranteed) << "row " << i;
    EXPECT_EQ(a.rows[i].best_effort, b.rows[i].best_effort) << "row " << i;
    EXPECT_EQ(a.rows[i].disconnected, b.rows[i].disconnected) << "row " << i;
    EXPECT_DOUBLE_EQ(a.rows[i].avg_inflation, b.rows[i].avg_inflation)
        << "row " << i;
  }
}

TEST(FaultCampaign, CsvHasHeaderAndOneLinePerRow) {
  const auto report = CampaignRunner{small_config()}.run();
  const auto csv = report.to_csv();
  std::istringstream lines{csv};
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("faults,node_faults,link_faults", 0), 0u);
  std::size_t rows = 0;
  while (std::getline(lines, line)) ++rows;
  EXPECT_EQ(rows, report.rows.size());
}

TEST(FaultCampaign, JsonIsBalancedAndCarriesConfig) {
  const auto report = CampaignRunner{small_config()}.run();
  const auto json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"rows\":["), std::string::npos);
  EXPECT_NE(json.find("\"guaranteed_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"m\":2"), std::string::npos);
  std::size_t depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      ASSERT_GT(depth, 0u);
      --depth;
    }
  }
  EXPECT_EQ(depth, 0u);
}

TEST(FaultCampaign, PrintsOneTableLinePerBudget) {
  const auto report = CampaignRunner{small_config()}.run();
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("fault campaign: m=2"), std::string::npos);
  EXPECT_NE(os.str().find("guaranteed %"), std::string::npos);
}

TEST(FaultCampaign, DefaultSweepEndsPastThePlusOne) {
  CampaignConfig config;
  config.m = 1;
  config.trials = 10;
  config.seed = 3;
  const auto report = CampaignRunner{config}.run();
  // degree + 2 = m + 3 budgets, plus the zero-fault row.
  EXPECT_EQ(report.rows.size(), config.m + 4u);
  EXPECT_EQ(report.config.max_faults, config.m + 3u);
}

TEST(FaultCampaign, RejectsBadConfig) {
  CampaignConfig config;
  config.trials = 0;
  EXPECT_THROW(CampaignRunner{config}, std::invalid_argument);
  config = CampaignConfig{};
  config.link_fault_fraction = 1.5;
  EXPECT_THROW(CampaignRunner{config}, std::invalid_argument);
}

TEST(FaultCampaign, RejectsMAboveTheSweepRange) {
  // The router sheds a cut container above m = 4 instead of sweeping, so a
  // campaign there could not tell a detour from a disconnected pair.
  CampaignConfig config;
  config.m = 5;
  EXPECT_THROW(CampaignRunner{config}, std::invalid_argument);
  config.m = 4;
  EXPECT_NO_THROW(CampaignRunner{config});
}

}  // namespace
}  // namespace hhc::fault
