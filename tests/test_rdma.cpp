// Tests for the RDMA cost model that E7 uses.
#include <gtest/gtest.h>

#include "rdma/cost_model.hpp"

namespace mm::rdma {
namespace {

TEST(CostModel, LocalCheaperThanRemote) {
  runtime::Metrics m{2};
  // p0: 10 local reads. p1: 10 remote reads.
  m.reads_by_proc[0] = 10;
  m.reads_by_proc[1] = 10;
  m.remote_reads_by_proc[1] = 10;
  const CostModel model;
  EXPECT_LT(model.process_time_ns(m, Pid{0}), model.process_time_ns(m, Pid{1}));
  EXPECT_DOUBLE_EQ(model.process_time_ns(m, Pid{0}), 10 * model.local_access_ns);
  EXPECT_DOUBLE_EQ(model.process_time_ns(m, Pid{1}), 10 * model.remote_read_ns);
}

TEST(CostModel, TotalsSumProcesses) {
  runtime::Metrics m{2};
  m.sends_by_proc[0] = 3;
  m.writes_by_proc[1] = 2;
  m.remote_writes_by_proc[1] = 2;
  const CostModel model;
  EXPECT_DOUBLE_EQ(model.total_time_ns(m),
                   3 * model.message_ns + 2 * model.remote_write_ns);
}

}  // namespace
}  // namespace mm::rdma
