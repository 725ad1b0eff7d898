(* Test runner: all suites. *)

let () =
  Alcotest.run "gmp"
    [ ("sim", Test_sim.suite);
      ("net", Test_net.suite);
      ("arq", Test_arq.suite);
      ("gbn", Test_gbn.suite);
      ("causality", Test_causality.suite);
      ("runtime", Test_runtime.suite);
      ("misc", Test_misc.suite);
      ("view", Test_view.suite);
      ("export", Test_export.suite);
      ("detector", Test_detector.suite);
      ("member", Test_member.suite);
      ("member-edge", Test_member_edge.suite);
      ("partitionable", Test_partitionable.suite);
      ("checker", Test_checker.suite);
      ("roster", Test_roster.suite);
      ("vsync", Test_vsync.suite);
      ("baselines", Test_baselines.suite);
      ("fuzz", Test_fuzz.suite);
      ("explore", Test_explore.suite);
      ("epistemic", Test_epistemic.suite);
      ("knowledge", Test_knowledge.suite);
      ("obs", Test_obs.suite);
      ("codec", Test_codec.suite);
      ("transport", Test_transport.suite);
      ("netem", Test_netem.suite);
      ("live-trace", Test_live_trace.suite);
      ("scale", Test_scale.suite);
      ("indexes", Test_indexes.suite);
      ("determinism", Test_determinism.suite);
      ("snapshot", Test_snapshot.suite);
      ("properties", Test_props.suite) ]
