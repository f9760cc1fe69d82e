// Montage astronomy mosaicking on a P2P grid.
//
// The paper's motivation: scientific workflows with complex dependencies
// executed on geographically dispersed volunteer resources. This example
// submits Montage-style mosaicking DAGs (projection -> background fit ->
// model -> correction -> co-addition) from several laboratories (home nodes),
// runs the dual-phase DSMF scheduler, and reports per-workflow completion
// and efficiency. It also dumps the first DAG as Graphviz for inspection.
//
//   ./montage_pipeline [--labs=6] [--mosaics=4] [--width=8] [--nodes=96]
#include <fstream>
#include <iostream>

#include "dag/dot.hpp"
#include "dag/templates.hpp"
#include "exp/metrics.hpp"
#include "exp/workload_factory.hpp"
#include "util/config.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace dpjit;
  const auto cli = util::Config::from_args(argc, argv);
  const int labs = static_cast<int>(cli.get_int("labs", 6));
  const int mosaics = static_cast<int>(cli.get_int("mosaics", 4));
  const int width = static_cast<int>(cli.get_int("width", 8));

  exp::ExperimentConfig cfg;
  cfg.nodes = static_cast<int>(cli.get_int("nodes", 96));
  cfg.workflows_per_node = 0;  // we submit our own workload below
  cfg.algorithm = cli.get_string("algorithm", "dsmf");
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  exp::World world(cfg);

  dag::TemplateParams tpl;
  tpl.load_mi = 3000.0;
  tpl.data_mb = 200.0;
  int submitted = 0;
  for (int lab = 0; lab < labs; ++lab) {
    for (int m = 0; m < mosaics; ++m) {
      auto wf = dag::make_montage(WorkflowId{}, width, tpl);
      if (lab == 0 && m == 0) {
        std::ofstream dot("montage.dot");
        dag::write_dot(dot, wf);
        std::cout << "wrote montage.dot (" << wf.task_count() << " tasks, " << wf.edge_count()
                  << " edges)\n";
      }
      world.system().submit(NodeId{lab}, std::move(wf));
      ++submitted;
    }
  }

  world.run();

  const auto& reports = world.metrics().reports();
  std::cout << "\n" << reports.size() << "/" << submitted << " mosaics completed\n\n";
  util::TablePrinter table({"workflow", "home", "completion(s)", "efficiency"});
  for (const auto& r : reports) {
    table.add_row({std::to_string(r.id.get()), std::to_string(r.home.get()),
                   util::TablePrinter::fmt(r.completion_time(), 6),
                   util::TablePrinter::fmt(r.efficiency(), 4)});
  }
  table.print(std::cout);
  std::cout << "\nACT = " << world.metrics().act() << " s, AE = " << world.metrics().ae()
            << "\n";
  return 0;
}
