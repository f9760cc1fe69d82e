#include "sim/trace.hpp"

#include <cstdio>

namespace dpjit::sim {

void Trace::record(SimTime time, TraceKind kind, NodeId node, TaskRef task,
                   std::string_view note) {
  if (!enabled_) return;
  records_.push_back(TraceRecord{time, kind, node, task, std::string(note)});
}

std::size_t Trace::count(TraceKind kind) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.kind == kind) ++n;
  }
  return n;
}

void Trace::print(std::ostream& os) const {
  char buf[64];
  for (const auto& r : records_) {
    std::snprintf(buf, sizeof(buf), "%12.2f", r.time);
    os << buf << "  " << trace_kind_name(r.kind) << "  node=" << r.node;
    if (r.task.workflow.valid()) os << "  " << r.task;
    if (!r.note.empty()) os << "  " << r.note;
    os << '\n';
  }
}

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kDispatch: return "DISPATCH";
    case TraceKind::kTransferStart: return "XFER_START";
    case TraceKind::kTransferEnd: return "XFER_END";
    case TraceKind::kExecStart: return "EXEC_START";
    case TraceKind::kExecEnd: return "EXEC_END";
    case TraceKind::kWorkflowDone: return "WF_DONE";
    case TraceKind::kNodeJoin: return "JOIN";
    case TraceKind::kNodeLeave: return "LEAVE";
    case TraceKind::kTaskFailed: return "TASK_FAIL";
    case TraceKind::kReschedule: return "RESCHED";
    case TraceKind::kReoffer: return "REOFFER";
    case TraceKind::kLinkDown: return "LINK_DOWN";
    case TraceKind::kLinkUp: return "LINK_UP";
  }
  return "?";
}

}  // namespace dpjit::sim
