// Table 2: cost comparison between magnetic tape and Silica, plus the parametric
// total-cost-of-ownership model behind the qualitative ratings (Section 9).
#include <cstdio>

#include "bench_util.h"
#include "core/cost_model.h"

namespace silica {
namespace {

void Table2() {
  Header("Table 2: qualitative cost comparison (L/M/H)");
  std::printf("%-46s %6s %8s\n", "aspect", "tape", "silica");
  for (const auto& row : QualitativeComparison()) {
    std::printf("%-46s %6s %8s\n", row.aspect.c_str(), ToString(row.tape),
                ToString(row.silica));
  }

  Header("Parametric TCO: 1 PB archived, 5% of data read per year");
  std::printf("%-10s %16s %16s %16s %12s\n", "horizon", "manufacturing",
              "maintenance", "drive ops", "total");
  for (double years : {10.0, 25.0, 50.0, 100.0}) {
    for (const auto& tech : {TapeTechnology(), SilicaTechnology()}) {
      const auto cost = TotalCostOfOwnership(tech, 1000.0, years, 0.05);
      std::printf("%4.0fy %-5s %16.0f %16.0f %16.0f %12.0f\n", years,
                  tech.name.c_str(), cost.media_manufacturing,
                  cost.media_maintenance, cost.drive_operations, cost.total());
    }
  }
  std::printf("\n(relative units; tape pays a full media + migration generation\n"
              " every ~10 years plus continuous scrubbing and environmentals,\n"
              " so the cost of data on magnetic media grows with time while\n"
              " glass pays once — the paper's core sustainability argument)\n");
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  return silica::RunBench(argc, argv, "bench_table2_cost", "Table 2: cost comparison.", [] {
    silica::Table2();
    return 0;
  });
}
