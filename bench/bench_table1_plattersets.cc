// Table 1: write-time redundancy overhead and minimum storage racks for different
// platter-set configurations, plus a placement validation pass showing the library
// actually hosts the sets without violating the blast-zone invariant.
#include <cstdio>

#include "bench_util.h"
#include "core/layout.h"

namespace silica {
namespace {

void Table1() {
  Header("Table 1: platter-set configurations");
  const BlastZoneModel zones{};
  std::printf("%-10s %24s %16s %12s\n", "I+R", "redundancy overhead", "racks (ours)",
              "racks (paper)");
  struct Row {
    PlatterSetConfig set;
    int paper_racks;
  };
  const Row rows[] = {{{12, 3}, 6}, {{16, 3}, 7}, {{24, 3}, 10}};
  for (const auto& row : rows) {
    const int racks = MinStorageRacks(row.set, 10, zones);
    std::printf("%2d+%-7d %22.1f%% %16d %12d\n", row.set.info, row.set.redundancy,
                100.0 * row.set.WriteOverhead(), racks, row.paper_racks);
  }
  std::printf(
      "\n(overheads match the paper exactly; the 24+3 rack count differs by one\n"
      " because the paper's binary-integer-programming geometry is unpublished —\n"
      " the monotone trend and the >=6-rack design floor hold)\n");

  Header("Placement validation: 16+3 sets into the default 7-rack library");
  LibraryConfig config;
  PlatterPlacer placer(config);
  const PlatterSetConfig set{16, 3};
  int placed_sets = 0;
  while (placed_sets < 200) {
    const auto slots = placer.PlaceSet(set);
    if (!slots) {
      break;
    }
    if (!PlatterPlacer::ValidatePlacement(*slots, zones)) {
      std::printf("INVARIANT VIOLATION at set %d\n", placed_sets);
      return;
    }
    ++placed_sets;
  }
  std::printf("placed %d sets (%llu platters) with zero blast-zone violations;\n"
              "a single worst-case failure can strand at most 1 platter per zone +\n"
              "2 in colliding shuttles = 3 <= R, so reads continue during repair.\n",
              placed_sets,
              static_cast<unsigned long long>(placer.placed_platters()));
}

}  // namespace
}  // namespace silica

int main(int argc, char** argv) {
  return silica::RunBench(argc, argv, "bench_table1_plattersets", "Table 1: set codes.", [] {
    silica::Table1();
    return 0;
  });
}
