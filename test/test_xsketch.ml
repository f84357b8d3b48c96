(* Tests for the twig-XSKETCH baseline: histograms, builder, estimator,
   and answer sampling. *)

module T = Testutil
module Tree = Xmldoc.Tree
module Histogram = Xsketch.Histogram
module Builder = Xsketch.Builder
module Model = Xsketch.Model

(* ---------------- histograms ---------------- *)

let test_hist_exact () =
  let sigs = [ ([| 1.; 2. |], 3.); ([| 2.; 0. |], 1.) ] in
  let h = Histogram.of_signatures sigs ~max_buckets:4 in
  Alcotest.(check int) "buckets" 2 (Histogram.num_buckets h);
  Alcotest.(check int) "dims" 2 (Histogram.dims h);
  T.check_float "mean dim0" 1.25 (Histogram.mean h 0);
  T.check_float "mean dim1" 1.5 (Histogram.mean h 1);
  T.check_float "exist dim1" 0.75 (Histogram.exist_prob h 1);
  T.check_float "expectation of product" ((0.75 *. 2.) +. 0.)
    (Histogram.expectation h (fun c -> c.(0) *. c.(1)) *. 1.)

let test_hist_compression () =
  let sigs = List.init 10 (fun i -> ([| float_of_int i |], 1.)) in
  let h = Histogram.of_signatures sigs ~max_buckets:4 in
  Alcotest.(check int) "compressed to 4" 4 (Histogram.num_buckets h);
  (* the residual bucket preserves the mean *)
  T.check_float "mean preserved" 4.5 (Histogram.mean h 0)

let test_hist_coalesce () =
  let sigs = [ ([| 2. |], 1.); ([| 2. |], 3.); ([| 1. |], 1.) ] in
  let h = Histogram.of_signatures sigs ~max_buckets:8 in
  Alcotest.(check int) "identical vectors coalesce" 2 (Histogram.num_buckets h)

let test_hist_empty () =
  Alcotest.(check int) "empty" 0 (Histogram.num_buckets (Histogram.of_signatures [] ~max_buckets:4));
  Alcotest.(check int) "size of empty" 0 (Histogram.size_bytes [])

let prop_hist_weights_sum =
  let arb =
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (pair (array_of_size (Gen.return 3) (float_range 0. 5.)) (float_range 0.5 3.)))
  in
  T.qtest "weights sum to 1" arb (fun sigs ->
      let h = Histogram.of_signatures sigs ~max_buckets:5 in
      let total = List.fold_left (fun a (b : Histogram.bucket) -> a +. b.weight) 0. h in
      T.feq ~eps:1e-6 total 1.)

let prop_hist_mean_preserved =
  let arb =
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (pair (array_of_size (Gen.return 2) (float_range 0. 5.)) (float_range 0.5 3.)))
  in
  T.qtest "compression preserves means" arb (fun sigs ->
      let exact = Histogram.of_signatures sigs ~max_buckets:1000 in
      let tight = Histogram.of_signatures sigs ~max_buckets:2 in
      T.feq ~eps:1e-6 (Histogram.mean exact 0) (Histogram.mean tight 0)
      && T.feq ~eps:1e-6 (Histogram.mean exact 1) (Histogram.mean tight 1))

(* ---------------- builder ---------------- *)

let doc = Datagen.Datasets.generate ~seed:31 ~scale:0.3 Datagen.Datasets.Imdb

let d = Twig.Doc.of_tree doc

let stable = Sketch.Stable.build doc

let training =
  let qs = Workload.positive ~seed:77 ~n:10 stable in
  List.map (fun q -> (q, Twig.Eval.selectivity d q)) qs

(* Workload-driven builds take seconds each; the builder is
   deterministic and its model immutable, so every test reading a build
   of one budget shares a single one. *)
let built_4k = lazy (Builder.build stable ~training ~budget:4096)

let built_8k = lazy (Builder.build stable ~training ~budget:8192)

let test_label_split () =
  let xs = Builder.label_split stable ~initial_buckets:1 in
  Alcotest.(check int) "one node per label"
    (List.length (Tree.distinct_labels doc))
    (Model.num_nodes xs);
  (* total elements preserved *)
  let total = Array.fold_left (fun a (n : Model.node) -> a +. n.count) 0. xs.Model.nodes in
  T.check_float "elements" (float_of_int (Tree.size doc)) total

let test_build_grows_to_budget () =
  let budget = 4096 in
  let xs = Lazy.force built_4k in
  Alcotest.(check bool) "reached budget ballpark" true
    (Model.size_bytes xs >= budget / 2);
  Alcotest.(check bool) "more nodes than label split" true
    (Model.num_nodes xs > List.length (Tree.distinct_labels doc))

let test_build_checkpoints_monotone () =
  let budgets = [ 1024; 2048; 4096 ] in
  let sweep = Builder.build_with_checkpoints stable ~training ~budgets in
  let sizes = List.map (fun (_, xs) -> Model.size_bytes xs) sweep in
  Alcotest.(check bool) "sizes non-decreasing" true
    (List.sort Stdlib.compare sizes = sizes)

(* ---------------- estimator ---------------- *)

let test_estimate_label_counts () =
  (* single-label queries are exact from the label-split graph *)
  let xs = Builder.label_split stable ~initial_buckets:1 in
  List.iter
    (fun src ->
      let q = Twig.Parse.query src in
      T.check_float ~eps:1e-6 src (Twig.Eval.selectivity d q) (Xsketch.Estimate.tuples xs q))
    [ "//movie"; "//actor"; "//keyword"; "//tvseries" ]

let test_estimate_empty () =
  let xs = Builder.label_split stable ~initial_buckets:1 in
  T.check_float "absent label" 0.
    (Xsketch.Estimate.tuples xs (Twig.Parse.query "//nothere"))

let test_path_prob_bounds () =
  let xs = Lazy.force built_4k in
  let paths = [ "//movie"; "//movie/genre"; "//actor[/role]"; "/movie" ] in
  List.iter
    (fun src ->
      let p = Twig.Parse.path src in
      let prob = Xsketch.Estimate.path_prob xs xs.Model.root p in
      Alcotest.(check bool) (src ^ " in [0,1]") true (prob >= 0. && prob <= 1.))
    paths

let prop_estimates_finite =
  T.qtest ~count:60 "estimates finite and non-negative" T.arb_query (fun q ->
      let xs = Builder.label_split stable ~initial_buckets:1 in
      let est = Xsketch.Estimate.tuples xs q in
      Float.is_finite est && est >= 0.)

(* ---------------- answer sampling ---------------- *)

let test_sample_positive () =
  let xs = Lazy.force built_8k in
  let q = Twig.Parse.query "//movie{/genre}" in
  match Xsketch.Answer.sample ~seed:3 xs q with
  | None -> Alcotest.fail "expected a sampled answer"
  | Some t ->
    (* the sampled tree uses variable-annotated labels *)
    let movie = Twig.Eval.nesting_label 1 (Xmldoc.Label.of_string "movie") in
    Alcotest.(check bool) "movies sampled" true (Tree.count_label movie t > 0)

let test_sample_negative_empty () =
  let xs = Lazy.force built_8k in
  let q = Twig.Parse.query "//movie{/nothere}" in
  Alcotest.(check bool) "required miss empties" true
    (Xsketch.Answer.sample ~seed:3 xs q = None)

let test_sample_deterministic () =
  let xs = Lazy.force built_8k in
  let q = Twig.Parse.query "//tvseries{//episode?}" in
  let a = Xsketch.Answer.sample ~seed:9 xs q and b = Xsketch.Answer.sample ~seed:9 xs q in
  match (a, b) with
  | Some ta, Some tb -> Alcotest.(check bool) "same seed same tree" true (Tree.equal ta tb)
  | None, None -> ()
  | _ -> Alcotest.fail "determinism violated"

let test_sample_budget_cap () =
  let xs = Lazy.force built_8k in
  let q = Twig.Parse.query "//movie{//name?}" in
  match Xsketch.Answer.sample ~seed:1 ~max_nodes:50 xs q with
  | None -> ()
  | Some t -> Alcotest.(check bool) "cap respected" true (Tree.size t <= 51)

let test_size_accounting () =
  let xs = Lazy.force built_4k in
  let by_hand =
    Array.fold_left
      (fun acc (n : Model.node) ->
        acc + Sketch.Synopsis.node_bytes
        + (Sketch.Synopsis.edge_bytes * Array.length n.edges)
        + Histogram.size_bytes n.hist)
      0 xs.Model.nodes
  in
  Alcotest.(check int) "size model" by_hand (Model.size_bytes xs)

let () =
  Alcotest.run "xsketch"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact" `Quick test_hist_exact;
          Alcotest.test_case "compression" `Quick test_hist_compression;
          Alcotest.test_case "coalesce" `Quick test_hist_coalesce;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          prop_hist_weights_sum;
          prop_hist_mean_preserved;
        ] );
      ( "builder",
        [
          Alcotest.test_case "label split" `Quick test_label_split;
          Alcotest.test_case "grows to budget" `Slow test_build_grows_to_budget;
          Alcotest.test_case "checkpoints monotone" `Slow test_build_checkpoints_monotone;
          Alcotest.test_case "size accounting" `Slow test_size_accounting;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "label counts exact" `Quick test_estimate_label_counts;
          Alcotest.test_case "empty result" `Quick test_estimate_empty;
          Alcotest.test_case "probabilities bounded" `Slow test_path_prob_bounds;
          prop_estimates_finite;
        ] );
      ( "answer",
        [
          Alcotest.test_case "positive sample" `Slow test_sample_positive;
          Alcotest.test_case "negative empty" `Slow test_sample_negative_empty;
          Alcotest.test_case "deterministic" `Slow test_sample_deterministic;
          Alcotest.test_case "node budget" `Slow test_sample_budget_cap;
        ] );
    ]
