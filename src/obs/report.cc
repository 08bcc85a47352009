#include "obs/report.h"

#include <cinttypes>
#include <cstdio>

namespace orq {

namespace {

std::string RenderLayout(const PhysicalOp& op, const ColumnManager* columns) {
  std::string out;
  const std::vector<ColumnId>& layout = op.layout();
  for (size_t i = 0; i < layout.size(); ++i) {
    if (i > 0) out += ", ";
    if (columns != nullptr) {
      out += columns->name(layout[i]);
      out += '#';
    }
    out += std::to_string(layout[i]);
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[32];
  // One decimal is enough for row estimates; trims the noise of %g.
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string FormatMillis(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", nanos / 1e6);
  return buf;
}

void RenderRec(const PlanStatsNode& node, int indent, std::string* out) {
  out->append(indent * 2, ' ');
  out->append(node.name);
  out->append(" [");
  out->append(node.columns);
  out->append("]");
  out->append(" (actual rows=" + std::to_string(node.stats.rows_out));
  if (node.est_rows >= 0) {
    out->append(" est rows=" + FormatDouble(node.est_rows));
  }
  out->append(" time=" + FormatMillis(node.stats.wall_nanos) + "ms");
  out->append(" self=" + FormatMillis(node.self_wall_nanos) + "ms");
  if (node.est_cost >= 0) {
    out->append(" est cost=" + FormatDouble(node.est_cost));
  }
  out->append(" opens=" + std::to_string(node.stats.open_calls));
  out->append(" nexts=" + std::to_string(node.stats.next_calls));
  if (node.stats.peak_cardinality > 0) {
    out->append(" peak=" + std::to_string(node.stats.peak_cardinality));
  }
  if (node.stats.column_batches > 0) {
    // For columnar operators rows_out counts selected rows while
    // batch_slots counts capacity, so the fill= ratio below doubles as
    // the selection-vector density.
    out->append(" mode=columnar");
  }
  if (node.stats.batch_slots > 0) {
    out->append(" fill=" +
                std::to_string(100 * node.stats.rows_out /
                               node.stats.batch_slots) +
                "%");
  }
  out->append(")\n");
  for (const PlanStatsNode& child : node.children) {
    RenderRec(child, indent + 1, out);
  }
}

}  // namespace

PlanStatsNode BuildPlanStats(const PhysicalOp& plan,
                             const StatsCollector& collector,
                             const ColumnManager* columns) {
  PlanStatsNode node;
  node.name = plan.name();
  node.columns = RenderLayout(plan, columns);
  node.est_rows = plan.est_rows();
  node.est_cost = plan.est_cost();
  if (const OpStats* stats = collector.Find(&plan)) node.stats = *stats;
  int64_t children_wall = 0;
  for (const PhysicalOp* child : plan.children()) {
    node.children.push_back(BuildPlanStats(*child, collector, columns));
    children_wall += node.children.back().stats.wall_nanos;
  }
  node.self_wall_nanos = node.stats.wall_nanos - children_wall;
  if (node.self_wall_nanos < 0) node.self_wall_nanos = 0;
  return node;
}

int64_t TotalRowsOut(const PlanStatsNode& node) {
  int64_t total = node.stats.rows_out;
  for (const PlanStatsNode& child : node.children) {
    total += TotalRowsOut(child);
  }
  return total;
}

std::string RenderPlanStats(const PlanStatsNode& root) {
  std::string out;
  RenderRec(root, 0, &out);
  return out;
}

std::string RenderTrace(const TraceLog& trace) {
  std::string out;
  for (const TraceEvent& event : trace.events()) {
    out += "  [";
    out += TraceStageName(event.stage);
    out += event.kind == TraceEvent::Kind::kPhase ? "/phase] " : "] ";
    out += event.rule;
    out += ": nodes " + std::to_string(event.nodes_before) + " -> " +
           std::to_string(event.nodes_after);
    if (event.cost_before >= 0) {
      out += ", cost " + FormatDouble(event.cost_before) + " -> " +
             FormatDouble(event.cost_after);
    }
    if (event.wall_nanos > 0) {
      out += ", time " + FormatMillis(event.wall_nanos) + "ms";
    }
    out += "\n";
  }
  return out;
}

}  // namespace orq
