#include "profibus/dispatching.hpp"

namespace profisched::profibus {

bool schedulable(const Network& net, ApPolicy policy, TcycleMethod method, Formulation form,
                 int fuel) {
  thread_local AnalysisScratch scratch;
  const TimingMemo memo = compute_timing(net, method);
  switch (policy) {
    case ApPolicy::Fcfs: return fcfs_schedulable(net, memo);
    case ApPolicy::Dm: return dm_schedulable(net, memo, form, fuel, scratch);
    case ApPolicy::Edf: return edf_schedulable(net, memo, fuel, scratch);
  }
  return false;
}

}  // namespace profisched::profibus
