// 4.3BSD Reno — the engine itself (tcp/sender.{h,cc}).  The registry's
// `reno` module is tcp::kRenoOps, the all-null table every TcpSender runs
// by default, so there is exactly one Reno: the baseline the other
// modules are measured against.
#include "cc/registry.h"

namespace vegas::cc {

CC_REGISTER_MODULE(reno, tcp::kRenoOps)

}  // namespace vegas::cc
