// Read request records shared by the scheduler, the digital twin, and the workload
// generator.
#ifndef SILICA_CORE_REQUEST_H_
#define SILICA_CORE_REQUEST_H_

#include <cstdint>
#include <vector>

namespace silica {

struct ReadRequest {
  uint64_t id = 0;
  double arrival = 0.0;      // seconds since trace start
  uint64_t file_id = 0;
  uint64_t bytes = 0;        // user bytes requested
  uint64_t platter = 0;      // platter holding the data
  uint64_t parent = 0;       // nonzero for recovery sub-reads (Section 5)

  template <class Ar>
  void Visit(Ar& ar) {
    ar(id, arrival, file_id, bytes, platter, parent);
  }
};

// A read trace is requests sorted by arrival time.
using ReadTrace = std::vector<ReadRequest>;

}  // namespace silica

#endif  // SILICA_CORE_REQUEST_H_
