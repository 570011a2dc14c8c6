let e22_equilibrium_catalog ?(n = 5) ?(game = Game.Sum) () =
  let census = Census.game_census ~pool:(Exp_common.pool ()) game n in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E22: catalog of all %s-equilibrium classes on %d vertices (%d of %d connected graphs, %d classes)"
           (Game.to_string game)
           n census.Census.equilibria_labeled census.Census.connected
           (List.length census.Census.equilibria_iso))
      ~columns:
        [
          ("graph6", Table.Left);
          ("m", Table.Right);
          ("diameter", Table.Right);
          ("girth", Table.Left);
          ("|Aut|", Table.Right);
          ("clustering", Table.Right);
          ("fiedler", Table.Right);
          ("degrees", Table.Left);
        ]
  in
  let sorted =
    List.sort
      (fun a b -> compare (Graph.m a, Graph6.encode a) (Graph.m b, Graph6.encode b))
      census.Census.equilibria_iso
  in
  List.iter
    (fun g ->
      Table.add_row t
        [
          Graph6.encode g;
          Table.cell_int (Graph.m g);
          Exp_common.diameter_cell g;
          Exp_common.girth_cell g;
          Table.cell_int (Canon.automorphism_count g);
          Table.cell_float ~digits:2 (Metrics.global_clustering g);
          Table.cell_float ~digits:2 (Spectral.algebraic_connectivity g);
          String.concat ","
            (Array.to_list (Array.map string_of_int (Graph.degree_sequence g)));
        ])
    sorted;
  Table.print t;
  print_endline
    "  Every row is a checkable certificate: feed the graph6 string to\n\
    \  `bncg check` / `bncg audit`. The catalog doubles as regression data — the\n\
    \  census counts are pinned by the test suite.\n"
