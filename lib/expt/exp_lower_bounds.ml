let e3_theorem5 () =
  let t =
    Table.create
      ~title:
        "E3 (Theorem 5, Figure 3): diameter-3 sum equilibria — paper construction audit and verified witnesses"
      ~columns:
        [
          ("graph", Table.Left);
          ("n", Table.Right);
          ("m", Table.Right);
          ("diameter", Table.Right);
          ("girth", Table.Right);
          ("sum equilibrium", Table.Left);
        ]
  in
  let row name g =
    Table.add_row t
      [
        name;
        Table.cell_int (Graph.n g);
        Table.cell_int (Graph.m g);
        Exp_common.diameter_cell g;
        Exp_common.girth_cell g;
        Exp_common.sum_verdict g;
      ]
  in
  row "Figure 3 (literal transcription)" Constructions.theorem5_graph;
  row "C5 + pendant" (Constructions.cycle_with_pendant 5);
  row "Petersen" (Generators.petersen ());
  row "Petersen + pendant (witness)" Constructions.sum_diameter3_witness;
  row "minimal witness n=8 (via Hunt)" Constructions.sum_diameter3_minimal;
  row "polarity ER_2" (Polarity.polarity_graph 2);
  row "polarity ER_3 (Albers et al. family)" (Polarity.polarity_graph 3);
  row "polarity ER_5" (Polarity.polarity_graph 5);
  row "star n=13" (Generators.star 13);
  row "wheel W12" (Generators.wheel 12);
  row "friendship F5" (Generators.friendship 5);
  row "cocktail party K(6x2)" (Generators.cocktail_party 6);
  Table.print t;
  print_endline
    "  Finding: the literal Figure 3 graph admits the improving swap d1: c11 -> c21\n\
    \  (gain 3 on {c21, b2, d2}, loss 2 on {c11, c32}); the proof's Lemma 8 loss-of-2\n\
    \  step fails when the swap target is the matched partner of the dropped vertex.\n\
    \  Theorem 5's statement is nevertheless TRUE: Petersen + pendant and the 8-vertex\n\
    \  minimal witness are verified diameter-3 sum equilibria (independent brute-force\n\
    \  checks in the test suite); by the exhaustive census, n = 8 is the minimum.\n"

let e4_graph_census ?(max_n = 6) ?(games = [ Game.Sum; Game.Max ]) () =
  let t =
    Table.create
      ~title:"E4: exhaustive equilibrium census over all connected graphs"
      ~columns:
        [
          ("version", Table.Left);
          ("n", Table.Right);
          ("connected graphs", Table.Right);
          ("equilibria (labeled)", Table.Right);
          ("equilibria (iso)", Table.Right);
          ("diameter histogram", Table.Left);
          ("max diameter", Table.Right);
        ]
  in
  List.iter
    (fun game ->
      for n = 3 to max_n do
        let c = Census.game_census ~pool:(Exp_common.pool ()) game n in
        Table.add_row t
          [
            Game.to_string game;
            Table.cell_int n;
            Table.cell_int c.Census.connected;
            Table.cell_int c.Census.equilibria_labeled;
            Table.cell_int (List.length c.Census.equilibria_iso);
            String.concat ", "
              (List.map
                 (fun (d, k) -> Printf.sprintf "diam %d: %d" d k)
                 c.Census.diameter_histogram);
            Table.cell_int c.Census.max_diameter;
          ]
      done)
    games;
  Table.print t
