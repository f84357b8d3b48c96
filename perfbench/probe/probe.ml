(* The in-process half of the repository benchmark (perfbench/run.py).

   run.py drives the real [treesketch build] and [treesketch serve]
   processes from outside and does all the arithmetic; this probe does
   the parts that need the library itself:

   - [gen]      makes a workload's inputs from its seed: the XML
                documents, the read requests, the mutation stream and
                the exact selectivities [sel_err] is scored against;
   - [check]    re-evaluates served QUERY/ANSWER requests in-process
                over the same snapshot files and reports every response
                that differs from the served one;
   - [refexact] exact selectivities of the hot queries over a reference
                model of the mutation history: the base document plus
                the acknowledged mutations a flush covered;
   - [trace]    the traced run: times calls into each layer's public
                functions and writes the spans when it ends.

   Every file the probe reads or writes lives in the directories it is
   given.  Usage: probe.exe <command> --key value ...  (see [main]). *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("probe: " ^ s);
      exit 2)
    fmt

let now = Unix.gettimeofday

let ok what = function
  | Ok v -> v
  | Error f -> die "%s: %s" what (Xmldoc.Fault.to_string f)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type doc = {
  name : string;
  dataset : Datagen.Datasets.dataset;
  scale : float;
}

let imdb = { name = "imdb_x2"; dataset = Imdb; scale = 2.0 }
let dblp = { name = "dblp_x10"; dataset = Dblp; scale = 10.0 }
let sprot = { name = "sprot_x2"; dataset = Sprot; scale = 2.0 }
let xmark = { name = "xmark_x4"; dataset = Xmark; scale = 4.0 }

let docs_of = function
  | "read" -> [ imdb; dblp; sprot; xmark ]
  | "mixed" -> [ xmark ]
  | w -> die "unknown workload %S" w

(* The synopsis the write phases mutate. *)
let write_target = xmark

(* Fragment roots cut for INGEST/UPDATE; [] = the root's children. *)
let fragment_labels = function
  | Datagen.Datasets.Xmark -> [ "person"; "open_auction"; "closed_auction"; "category" ]
  | _ -> []

(* The documents are a fixed corpus: one per dataset and scale,
   whatever the workload seed.  Seed-varied documents moved TSBUILD time
   by ~20% between seeds (stable summaries differ in size), more than
   any bound a regression gate can use; the seed instead drives
   everything drawn from the corpus: queries, request order, fragments
   and mutations.  [corpus_seed] is part of the benchmark's definition. *)
let corpus_seed = 1

let doc_seed seed d =
  (seed * 16)
  + match d.dataset with Imdb -> 1 | Dblp -> 2 | Sprot -> 3 | Xmark -> 4 | Treebank -> 5

let budget = 16 * 1024
let level_budget = Serve.Server.default_config.level_budget
let flush_records = Serve.Server.default_config.flush_records
let compact_levels = Serve.Server.default_config.compact_levels
let hot_set = 16

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let read_lines path =
  if not (Sys.file_exists path) then []
  else
    read_file path |> String.split_on_char '\n' |> List.filter (fun l -> l <> "")

let tsv line = String.split_on_char '\t' line

let xml_path dir d = Filename.concat dir (d.name ^ ".xml")

(* docs.tsv: name, xml path, elements, bytes, stable-summary nodes *)
let read_docs dir =
  List.map
    (fun l ->
      match tsv l with
      | [ name; path; _; _; _ ] -> (name, path)
      | _ -> die "bad docs.tsv line %S" l)
    (read_lines (Filename.concat dir "docs.tsv"))

let parse_xml path = ok path (Xmldoc.Parser.of_file_res ~limits:Xmldoc.Limits.unlimited path)

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let query_line kind name q = Printf.sprintf "%s %s %s" kind name (Twig.Syntax.to_string q)

(* [n] distinct positive queries (by rendered text), drawing further
   seeds until enough exist or the summary runs dry. *)
let distinct_queries ~seed ~n stable =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] in
  let rec draw round =
    if Hashtbl.length seen < n && round < 64 then begin
      List.iter
        (fun q ->
          let s = Twig.Syntax.to_string q in
          if Hashtbl.length seen < n && not (Hashtbl.mem seen s) then begin
            Hashtbl.add seen s ();
            out := q :: !out
          end)
        (Workload.positive ~seed:((seed * 64) + round) ~n stable);
      draw (round + 1)
    end
  in
  draw 0;
  List.rev !out

(* Zipf (s = 1) rank draw over [n] items. *)
let zipf rng n =
  let h = Array.init n (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 h in
  let u = Random.State.float rng total in
  let rec go k acc = if k >= n - 1 || acc +. h.(k) > u then k else go (k + 1) (acc +. h.(k)) in
  go 0 0.0

(* Single-line fragments for INGEST/UPDATE, cut from a second corpus
   document of the target's dataset: subtrees with one of the dataset's
   fragment labels, or the root's children. *)
let fragments d =
  let tree = Datagen.Datasets.generate ~seed:(doc_seed corpus_seed d + 7) ~scale:1.0 d.dataset in
  let cands =
    match fragment_labels d.dataset with
    | [] -> Array.to_list (Xmldoc.Tree.children tree)
    | labels ->
      Xmldoc.Tree.fold_pre
        (fun acc t ->
          if List.mem (Xmldoc.Label.to_string (Xmldoc.Tree.label t)) labels then t :: acc
          else acc)
        [] tree
      |> List.rev
  in
  cands
  |> List.filter (fun t -> Xmldoc.Tree.size t <= 300)
  |> List.map (fun t -> (t, Xmldoc.Printer.to_string t))
  |> Array.of_list

(* The mutation stream: 80% INGEST, 10% DELETE, 10% UPDATE.  DELETE and
   UPDATE target [root/child] path predicates of fragments already
   ingested. *)
let mutations rng ~name frags m =
  let inserted = ref [] in
  let path_of (t : Xmldoc.Tree.t) =
    let root = Xmldoc.Label.to_string (Xmldoc.Tree.label t) in
    match Xmldoc.Tree.children t with
    | [||] -> root
    | cs ->
      root ^ "/"
      ^ Xmldoc.Label.to_string (Xmldoc.Tree.label cs.(Random.State.int rng (Array.length cs)))
  in
  List.init m (fun _ ->
      let t, xml = frags.(Random.State.int rng (Array.length frags)) in
      let r = Random.State.float rng 1.0 in
      match !inserted with
      | _ :: _ as ins when r >= 0.8 ->
        let target = List.nth ins (Random.State.int rng (List.length ins)) in
        if r < 0.9 then Printf.sprintf "DELETE %s %s" name (path_of target)
        else begin
          inserted := t :: !inserted;
          Printf.sprintf "UPDATE %s %s %s" name (path_of target) xml
        end
      | _ ->
        inserted := t :: !inserted;
        Printf.sprintf "INGEST %s %s" name xml)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Every 4th query of a pool is an ANSWER. *)
let kind j = if j mod 4 = 3 then "ANSWER" else "QUERY"

(* The queries are drawn from the corpus, so every seed offers the same
   multiset of requests; the seed decides their order and the mutation
   stream.  (Seed-drawn query sets moved throughput and tail latency by
   more than a gate can bound: a few heavy cyclic-XMark queries more or
   less decide them.)  Files written to [dir]:
   - docs.tsv     name, XML path, elements, bytes, stable-summary nodes
   - reads.tsv    the read phase's requests
   - exact.tsv    name, query, exact selectivity: the scored QUERYs
   - hot.tsv      Zipf-drawn hot QUERYs on the write target
   - accuracy.tsv queries scored after the mixed run (refexact)
   - writes.tsv   the mutation stream on the write target *)
let gen ~workload ~seed ~dir ~reads ~writes =
  let prepared =
    List.map
      (fun d ->
        let t = Datagen.Datasets.generate ~seed:(doc_seed corpus_seed d) ~scale:d.scale d.dataset in
        Xmldoc.Printer.to_file (xml_path dir d) t;
        (d, Twig.Doc.of_tree t, Sketch.Stable.build t))
      (docs_of workload)
  in
  write_lines (Filename.concat dir "docs.tsv")
    (List.map
       (fun (d, idx, st) ->
         Printf.sprintf "%s\t%s\t%d\t%d\t%d" d.name (xml_path dir d) (Twig.Doc.size idx)
           (Unix.stat (xml_path dir d)).st_size (Sketch.Synopsis.num_nodes st))
       prepared);
  let rng = Random.State.make [| seed; 0x5eed |] in
  let exact = ref [] in
  let add_exact name idx q =
    exact :=
      Printf.sprintf "%s\t%s\t%.17g" name (Twig.Syntax.to_string q) (Twig.Eval.selectivity idx q)
      :: !exact
  in
  (* [per] corpus queries per document, interleaved across documents *)
  let pools per =
    List.map (fun (d, idx, st) -> (d, idx, Array.of_list (distinct_queries ~seed:corpus_seed ~n:per st)))
      prepared
  in
  let interleave lo hi pools =
    List.concat
      (List.init (hi - lo) (fun i ->
           List.filter_map
             (fun (d, _, qs) ->
               let j = lo + i in
               if j < Array.length qs then Some (query_line (kind j) d.name qs.(j)) else None)
             pools))
  in
  let read_requests =
    match workload with
    | "read" ->
      (* distinct request texts spread evenly over the names; the QUERYs
         among the first [scored] of each name are scored *)
      let scored = 30 in
      let k = List.length prepared in
      let per = (reads + k - 1) / k in
      let ps = pools per in
      List.iter
        (fun (d, idx, qs) ->
          Array.iteri (fun j q -> if kind j = "QUERY" && j < scored then add_exact d.name idx q) qs)
        ps;
      (* The scored requests come first, so every run serves them all.
         The fixed-time loops get through more of the rest on a faster
         machine, and later draws of a pool are longer twigs (the short
         ones are taken), so the rest is shuffled as a whole: every
         prefix has the same mix of requests. *)
      let part lo hi = Array.to_list (shuffle rng (Array.of_list (interleave lo hi ps))) in
      part 0 scored @ part scored per
    | _ -> []
  in
  let target = write_target in
  let _, _, target_stable =
    match List.find_opt (fun (d, _, _) -> d.name = target.name) prepared with
    | Some p -> p
    | None -> die "write target %s not generated" target.name
  in
  let suite = Array.of_list (distinct_queries ~seed:(corpus_seed + 3) ~n:64 target_stable) in
  let hot = Array.sub suite 0 (min hot_set (Array.length suite)) in
  let hot_lines n =
    List.init n (fun _ -> query_line "QUERY" target.name hot.(zipf rng (Array.length hot)))
  in
  write_lines (Filename.concat dir "reads.tsv")
    (if workload = "mixed" then hot_lines reads else read_requests);
  write_lines (Filename.concat dir "hot.tsv") (hot_lines writes);
  write_lines (Filename.concat dir "accuracy.tsv")
    (Array.to_list (Array.map Twig.Syntax.to_string suite));
  write_lines (Filename.concat dir "writes.tsv")
    (mutations rng ~name:target.name (fragments target) writes);
  write_lines (Filename.concat dir "exact.tsv") (List.rev !exact)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

(* The benchmark's server runs with --max-answer-nodes (spec.json);
   the in-process side uses the same cap. *)
let max_answer_nodes = ref Serve.Server.default_config.max_answer_nodes

let server_caps () =
  {
    Serve.Query_exec.deadline = Serve.Server.default_config.deadline;
    max_answer_nodes = !max_answer_nodes;
    max_work = Serve.Server.default_config.max_work;
    max_heap_words = max_int;
  }

let has_token tok line = List.mem tok (String.split_on_char ' ' line)

let level_stack_response line =
  List.exists
    (fun w -> String.length w > 7 && String.sub w 0 7 = "levels=")
    (String.split_on_char ' ' line)

(* One served request against the in-process answer over the same
   snapshot; [None] when either side is degraded (a deadline or cap
   tripped), since a partial answer depends on timing. *)
let in_process cat line =
  let read kind opts name q =
    match Serve.Catalog.find cat name with
    | None -> Some (Error ("no snapshot " ^ name))
    | Some e ->
      let budget = Serve.Query_exec.budget_for (server_caps ()) opts in
      let o = Serve.Query_exec.run_guarded ~budget kind e.synopsis q in
      if o.degraded then None else Some (Ok o.response)
  in
  match Serve.Protocol.parse line with
  | Ok (Query (opts, name, q)) -> read Serve.Query_exec.Query opts name q
  | Ok (Answer (opts, name, q)) -> read Serve.Query_exec.Answer opts name q
  | _ -> Some (Error "not a QUERY/ANSWER request")

(* At most [limit] distinct requests are re-evaluated, the first in log
   order, which bounds the check's time on long runs. *)
let check ~catalog ~log ~limit =
  let cat = Serve.Catalog.create ~limits:Xmldoc.Limits.unlimited catalog in
  ignore (Serve.Catalog.refresh cat : Serve.Catalog.event list);
  let seen = Hashtbl.create 1024 in
  let checked = ref 0 and skipped = ref 0 and bad = ref 0 in
  List.iter
    (fun l ->
      match String.index_opt l '\t' with
      | None -> die "bad log line"
      | Some i ->
        let req = String.sub l 0 i and resp = String.sub l (i + 1) (String.length l - i - 1) in
        if
          Hashtbl.mem seen req || Hashtbl.length seen >= limit
          || (not (has_token "degraded=no" resp))
          || level_stack_response resp
        then incr skipped
        else begin
          Hashtbl.add seen req ();
          match in_process cat req with
          | None -> incr skipped
          | Some (Ok r) when r = resp -> incr checked
          | Some r ->
            incr checked;
            incr bad;
            if !bad <= 5 then
              Printf.printf "mismatch\t%s\t%s\t%s\n"
                (String.sub req 0 (min 120 (String.length req)))
                (String.sub resp 0 (min 120 (String.length resp)))
                (match r with
                | Ok s -> String.sub s 0 (min 120 (String.length s))
                | Error e -> e)
        end)
    (read_lines log);
  Printf.printf "checked\t%d\nskipped\t%d\nmismatches\t%d\n" !checked !skipped !bad

(* ------------------------------------------------------------------ *)
(* refexact: the reference model of the mutation history               *)
(* ------------------------------------------------------------------ *)

(* Remove every subtree of [t] matched by the label path [p] walked
   from [t] itself ([p]'s head is [t]'s own label); [None] = [t] goes. *)
let rec prune (t : Xmldoc.Tree.t) = function
  | [] -> Some t
  | [ l ] when Xmldoc.Label.to_string (Xmldoc.Tree.label t) = l -> None
  | l :: (_ :: _ as rest) when Xmldoc.Label.to_string (Xmldoc.Tree.label t) = l ->
    let kept =
      Array.to_list (Xmldoc.Tree.children t)
      |> List.filter_map (fun c ->
             match rest with
             | [ x ] when Xmldoc.Label.to_string (Xmldoc.Tree.label c) = x -> None
             | _ :: _ :: _ -> prune c rest
             | _ -> Some c)
    in
    Some (Xmldoc.Tree.make (Xmldoc.Tree.label t) kept)
  | _ -> Some t

let parse_fragment xml = ok "fragment" (Xmldoc.Parser.of_string_res xml)

(* Apply acknowledged mutations in sequence order: an INGEST appends a
   fragment under the shared root, a DELETE prunes its path from every
   older fragment, an UPDATE does both. *)
let apply_mutations lines =
  let live = ref [] in
  List.iter
    (fun l ->
      match tsv l with
      | [ _seq; line ] -> (
        let delete path =
          let p = String.split_on_char '/' path in
          live := List.filter_map (fun t -> prune t p) !live
        in
        match String.split_on_char ' ' line with
        | "INGEST" :: _ :: xml -> live := !live @ [ parse_fragment (String.concat " " xml) ]
        | "DELETE" :: _ :: [ path ] -> delete path
        | "UPDATE" :: _ :: path :: xml ->
          delete path;
          live := !live @ [ parse_fragment (String.concat " " xml) ]
        | _ -> die "bad mutation %S" line)
      | _ -> die "bad acked line %S" l)
    lines;
  !live

let refexact ~dir ~name ~acked =
  let path =
    match List.assoc_opt name (read_docs dir) with Some p -> p | None -> die "no doc %s" name
  in
  let base = parse_xml path in
  let frags = apply_mutations (read_lines acked) in
  let doc =
    Xmldoc.Tree.make (Xmldoc.Tree.label base)
      (Array.to_list (Xmldoc.Tree.children base) @ frags)
  in
  let idx = Twig.Doc.of_tree doc in
  List.iter
    (fun qs ->
      Printf.printf "%s\t%.17g\n" qs (Twig.Eval.selectivity idx (Twig.Parse.query qs)))
    (read_lines (Filename.concat dir "accuracy.tsv"))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans are kept in memory and written when the run ends.  A span's
   parent is the enclosing layer boundary of the same request: the
   benchmark calls each boundary of one request in turn (outermost
   first), so a layer's self time is its span minus its children's. *)
type span = {
  rid : string;
  sname : string;
  parent : string;
  t0 : float;
  t1 : float;
}

let spans = ref []
let counters = ref []

let timed ~rid ?(parent = "-") sname f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  spans := { rid; sname; parent; t0; t1 } :: !spans;
  v

let count name v = counters := (name, v) :: !counters

let write_trace path =
  write_lines path
    (List.rev_map
       (fun s -> Printf.sprintf "span\t%s\t%s\t%s\t%.9f\t%.9f" s.rid s.sname s.parent s.t0 s.t1)
       !spans
    @ List.rev_map (fun (n, v) -> Printf.sprintf "count\t%s\t%.17g" n v) !counters)

(* Build layers: parse, BUILD_STABLE, TSBUILD, snapshot save and load,
   per document of the workload. *)
(* Run [f] in a forked child that writes its spans to [file]: a fresh
   process per build, as [treesketch build] is, so label ids - and with
   them TSBUILD's tie-breaks and merge count - do not depend on what the
   probe parsed before.  Call it before the probe starts any thread. *)
let in_child ~file f =
  match Unix.fork () with
  | 0 ->
    spans := [];
    counters := [];
    f ();
    write_trace file;
    Unix._exit 0
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> die "traced build in child %d failed" pid)

(* Build layers: parse, BUILD_STABLE, TSBUILD, snapshot save and load,
   per document of the workload. *)
let trace_build ~docs ~work =
  List.map
    (fun (name, path) ->
      let rid = "build:" ^ name in
      let file = Filename.concat work (rid ^ ".tsv") in
      in_child ~file (fun () ->
          let text = read_file path in
          let tree, st, out =
            timed ~rid "build" (fun () ->
                let tree =
                  timed ~rid ~parent:"build" "parse" (fun () ->
                      ok path (Xmldoc.Parser.of_string_res ~limits:Xmldoc.Limits.unlimited text))
                in
                let st = timed ~rid ~parent:"build" "stable" (fun () -> Sketch.Stable.build tree) in
                let o =
                  timed ~rid ~parent:"build" "tsbuild" (fun () ->
                      ok "tsbuild" (Sketch.Build.build_res st ~budget))
                in
                (tree, st, o))
          in
          let ts = Filename.concat work (name ^ ".ts") in
          timed ~rid "save" (fun () -> ok "save" (Sketch.Serialize.save_atomic ts out.synopsis));
          let loaded = timed ~rid "load" (fun () -> ok "load" (Sketch.Serialize.load_res ts)) in
          if Sketch.Synopsis.num_nodes loaded <> Sketch.Synopsis.num_nodes out.synopsis then
            die "snapshot %s did not round-trip" name;
          count (rid ^ ".bytes") (float_of_int (String.length text));
          count (rid ^ ".elements") (float_of_int (Xmldoc.Tree.size tree));
          count (rid ^ ".stable_nodes") (float_of_int (Sketch.Synopsis.num_nodes st));
          count (rid ^ ".merges")
            (float_of_int (Sketch.Synopsis.num_nodes st - Sketch.Synopsis.num_nodes out.synopsis));
          count (rid ^ ".snapshot_bytes") (float_of_int (Unix.stat ts).st_size));
      file)
    docs

(* TSBUILD per merge at two document scales, so superlinear cost shows. *)
let trace_scales ~work =
  List.map
    (fun scale ->
      let d = { sprot with scale } in
      let rid = Printf.sprintf "scale:sprot_x%g" scale in
      let file = Filename.concat work (rid ^ ".tsv") in
      in_child ~file (fun () ->
          let st =
            Sketch.Stable.build (Datagen.Datasets.generate ~seed:(doc_seed corpus_seed d) ~scale Sprot)
          in
          let o = timed ~rid "tsbuild" (fun () -> ok "tsbuild" (Sketch.Build.build_res st ~budget)) in
          count (rid ^ ".merges")
            (float_of_int (Sketch.Synopsis.num_nodes st - Sketch.Synopsis.num_nodes o.synopsis)));
      file)
    [ 1.0; 2.0 ]

let request_of line =
  match Serve.Protocol.parse line with
  | Ok (Query (opts, name, q)) -> (Serve.Query_exec.Query, opts, name, q)
  | Ok (Answer (opts, name, q)) -> (Serve.Query_exec.Answer, opts, name, q)
  | _ -> die "not a read request: %S" line

(* Read layers: Client.request against the live server, then
   in-process Server.handle_line (pool on), Pool.exec, Query_exec.run and
   the evaluator calls it makes.  Each boundary gets its own pass over a
   block of [block] requests, so every call runs among calls like itself,
   as it does when served; the passes over one block follow each other
   within tens of milliseconds, so a slow stretch of the machine falls on
   every layer of the block alike and the subtraction of self times stays
   fair.  The client pass alternates each traced Client.request with an
   untraced one (order flipped every request), so tracing overhead is
   measured under the same machine conditions. *)
let block = 25

let trace_read ~socket ~catalog ~srv ~docs ~lines =
  let client = Serve.Client.create [ socket ] in
  let rtt line =
    match Serve.Client.request client line with
    | Ok r -> r
    | Error e -> die "client: %s" (Serve.Client.error_to_string e)
  in
  let reqs =
    Array.of_list
      (List.mapi
         (fun i line ->
           let kind, opts, name, q = request_of line in
           (Printf.sprintf "read:%d" i, line, kind, opts, name, q))
         lines)
  in
  let pass f = Array.iteri (fun i r -> f i r) reqs in
  let pool = Serve.Server.pool srv in
  let cat = Serve.Catalog.create catalog in
  ignore (Serve.Catalog.refresh cat : Serve.Catalog.event list);
  let synopsis name =
    match Serve.Catalog.find cat name with
    | Some e -> e.synopsis
    | None -> die "no snapshot %s" name
  in
  let budget opts = Serve.Query_exec.budget_for (server_caps ()) opts in
  (* warm the in-process pool workers, as the live server's already are *)
  pass (fun i (_, line, _, _, _, _) ->
      if i < 50 then ignore (Serve.Server.handle_line srv line : string * bool));
  let degraded = ref 0 in
  let layers =
    [
      (fun i (rid, line, _, _, _, _) ->
        let untraced () =
          let t0 = now () in
          ignore (rtt line : string);
          count "untraced.client_s" (now () -. t0)
        in
        if i mod 2 = 0 then untraced ();
        ignore (timed ~rid "client" (fun () -> rtt line) : string);
        if i mod 2 = 1 then untraced ());
      (fun _ (rid, line, _, _, _, _) ->
        ignore
          (timed ~rid ~parent:"client" "handle_line" (fun () -> Serve.Server.handle_line srv line)
            : string * bool));
      (fun _ (rid, line, _, opts, name, q) ->
        let query_key = Twig.Syntax.to_string q in
        ignore
          (timed ~rid ~parent:"handle_line" "pool" (fun () ->
               Serve.Pool.exec pool ~name ~query_key ~opts ~line)
            : string));
      (fun _ (rid, _, kind, opts, name, q) ->
        let o =
          timed ~rid ~parent:"pool" "query_exec" (fun () ->
              Serve.Query_exec.run ~budget:(budget opts) kind (synopsis name) q)
        in
        if o.degraded then incr degraded);
      (fun _ (rid, _, kind, opts, name, q) ->
        let budget = budget opts and syn = synopsis name in
        let ans = timed ~rid ~parent:"query_exec" "eval" (fun () -> Sketch.Eval.eval ~budget syn q) in
        count (rid ^ ".raw_nodes") (float_of_int (Sketch.Synopsis.num_nodes ans.raw));
        match kind with
        | Query ->
          ignore
            (timed ~rid ~parent:"query_exec" "selectivity" (fun () ->
                 Sketch.Selectivity.of_answer q ans)
              : float)
        | Answer when not ans.empty ->
          let p =
            timed ~rid ~parent:"query_exec" "expand" (fun () ->
                Sketch.Expand.partial ~budget ans.synopsis)
          in
          let s =
            timed ~rid ~parent:"query_exec" "render" (fun () ->
                Serve.Protocol.one_line (Xmldoc.Printer.to_string p.tree))
          in
          count (rid ^ ".answer_nodes") (float_of_int p.nodes);
          count (rid ^ ".render_bytes") (float_of_int (String.length s))
        | Answer -> ());
    ]
  in
  let n = Array.length reqs in
  for b = 0 to (n - 1) / block do
    let lo = b * block and hi = min n ((b + 1) * block) in
    List.iter (fun f -> for i = lo to hi - 1 do f i reqs.(i) done) layers
  done;
  pass (fun _ (rid, line, _, _, _, _) ->
      ignore (timed ~rid "protocol" (fun () -> Serve.Protocol.parse line) : _ result);
      ignore (timed ~rid "catalog" (fun () -> Serve.Catalog.refresh cat) : Serve.Catalog.event list));
  (* the exact evaluator on the same queries, for the section 1 claim *)
  let docs = List.map (fun (n, path) -> (n, Twig.Doc.of_tree (parse_xml path))) docs in
  pass (fun i (rid, _, _, _, name, q) ->
      match List.assoc_opt name docs with
      | Some idx when i < 60 -> ignore (timed ~rid "exact" (fun () -> Twig.Eval.selectivity idx q) : float)
      | _ -> ());
  (* Pool.exec again with two concurrent callers (the benchmark's two
     connections): the excess over the serial call is time spent
     waiting for a worker and a core. *)
  let lock = Mutex.create () in
  let worker k =
    pass (fun i (rid, line, _, opts, name, q) ->
        if i mod 2 = k then begin
          let t0 = now () in
          ignore (Serve.Pool.exec pool ~name ~query_key:(Twig.Syntax.to_string q) ~opts ~line : string);
          let t1 = now () in
          Mutex.protect lock (fun () ->
              spans := { rid; sname = "pool_conc"; parent = "-"; t0; t1 } :: !spans)
        end)
  in
  List.iter Thread.join (List.map (Thread.create worker) [ 0; 1 ]);
  let ps = Serve.Pool.stats pool and ss = Serve.Server.stats srv in
  count "pool.kills" (float_of_int ps.kills);
  count "server.errors" (float_of_int ss.errors);
  count "server.degraded" (float_of_int ss.degraded);
  count "query_exec.degraded" (float_of_int !degraded);
  ignore (Serve.Pool.shutdown pool : int);
  Serve.Client.close client

(* Write layers on a private copy of the write target's base snapshot:
   the write phase's mutations through Ingest, with flushes and
   compactions run inline, and its hot QUERYs over the level stack. *)
let trace_write ~catalog ~name ~writes ~hot ~work =
  let dir = Filename.concat work "ingest" in
  Unix.mkdir dir 0o755;
  let base_path = Filename.concat dir (name ^ ".ts") in
  Out_channel.with_open_bin base_path (fun oc ->
      output_string oc (read_file (Filename.concat catalog (name ^ ".ts"))));
  let base = ok "base" (Sketch.Serialize.load_res base_path) in
  let root_label = Sketch.Synopsis.label base base.root in
  let eng =
    ok "ingest open"
      (Serve.Ingest.open_ ~root_label ~dir ~name ~level_budget ~flush_records ())
  in
  let flushes = ref 0 and compactions = ref 0 in
  let ack what = function
    | Ok _ -> ()
    | Error `No_space -> die "%s: no space" what
    | Error (`Fault f) -> die "%s: %s" what (Xmldoc.Fault.to_string f)
  in
  let hot = Array.of_list hot in
  List.iteri
    (fun i line ->
      let rid = Printf.sprintf "write:%d" i in
      (match String.split_on_char ' ' line with
      | "INGEST" :: _ :: xml ->
        timed ~rid "ack" (fun () -> ack "ingest" (Serve.Ingest.ingest eng ~xml:(String.concat " " xml)))
      | "DELETE" :: _ :: [ path ] ->
        timed ~rid "ack" (fun () -> ack "delete" (Serve.Ingest.delete eng ~path))
      | "UPDATE" :: _ :: path :: xml ->
        timed ~rid "ack" (fun () ->
            ack "update" (Serve.Ingest.update eng ~path ~xml:(String.concat " " xml)))
      | _ -> die "bad mutation %S" line);
      if Serve.Ingest.should_flush eng then begin
        if timed ~rid "flush" (fun () -> ok "flush" (Serve.Ingest.flush eng)) then incr flushes
      end;
      if Serve.Ingest.level_count eng >= compact_levels then begin
        (* the compress step alone, then the whole compaction *)
        let union =
          match Sketch.Build.merge_tombstoned (Array.to_list (Serve.Ingest.level_stack eng)) with
          | Ok s -> s
          | Error e -> die "merge: %s" e
        in
        ignore
          (timed ~rid "compress" (fun () -> ok "compress" (Sketch.Build.build_res union ~budget:level_budget))
            : Sketch.Build.outcome);
        ignore
          (timed ~rid "compact" (fun () ->
               ok "compact"
                 (Serve.Ingest.compact ~dir ~name ~level_budget
                    ~checkpoint:(Filename.concat dir "compact.ckpt") ()))
            : bool);
        ok "refresh" (Serve.Ingest.refresh eng);
        incr compactions
      end;
      if i < Array.length hot then begin
        let _, opts, _, q = request_of hot.(i) in
        let stack = Serve.Ingest.level_stack eng in
        let n = Array.length stack in
        count (rid ^ ".depth") (float_of_int n);
        ignore
          (timed ~rid "prune" (fun () ->
               Array.mapi
                 (fun j (s, _) ->
                   let newer = List.concat (List.init (n - j - 1) (fun k -> snd stack.(j + 1 + k))) in
                   if newer = [] then s else Sketch.Build.prune_paths s newer)
                 stack)
            : Sketch.Synopsis.t array);
        ignore
          (timed ~rid "levels_eval" (fun () ->
               Serve.Query_exec.run
                 ~levels:(stack, Serve.Ingest.staleness eng)
                 ~budget:(Serve.Query_exec.budget_for (server_caps ()) opts)
                 Query base q)
            : Serve.Query_exec.outcome)
      end)
    writes;
  count "ingest.flushes" (float_of_int !flushes);
  count "ingest.compactions" (float_of_int !compactions);
  Serve.Ingest.close eng;
  (* WAL appends alone, on a separate log holding the same payloads *)
  let wdir = Filename.concat work "wal" in
  Unix.mkdir wdir 0o755;
  let wal, _, _ = ok "wal open" (Serve.Wal.open_ ~dir:wdir ~name ()) in
  let records = ref 0 in
  List.iteri
    (fun i line ->
      match String.split_on_char ' ' line with
      | "INGEST" :: _ :: xml ->
        incr records;
        let r = { Serve.Wal.seq = i + 1; ts = now (); op = Insert; payload = String.concat " " xml } in
        timed ~rid:(Printf.sprintf "write:%d" i) "wal_append" (fun () -> ack "wal" (Serve.Wal.append wal r))
      | _ -> ())
    writes;
  count "wal.records" (float_of_int !records);
  count "wal.bytes" (float_of_int (Serve.Wal.bytes wal));
  Serve.Wal.close wal

let trace ~dir ~catalog ~socket ~work ~reads =
  let docs = read_docs dir in
  let children = trace_build ~docs ~work @ trace_scales ~work in
  (* the in-process server forks its pool workers from a small heap, as
     the live server does *)
  let srv =
    Serve.Server.create ~log:ignore
      ~config:
        {
          Serve.Server.default_config with
          max_answer_nodes = !max_answer_nodes;
          pool = { Serve.Pool.default_config with workers = 2 };
        }
      catalog
  in
  let lines = Array.of_list (read_lines (Filename.concat dir "reads.tsv")) in
  let lines = List.init reads (fun i -> lines.(i mod Array.length lines)) in
  trace_read ~socket ~catalog ~srv ~docs ~lines;
  trace_write ~catalog ~name:write_target.name
    ~writes:(read_lines (Filename.concat dir "writes.tsv"))
    ~hot:(read_lines (Filename.concat dir "hot.tsv"))
    ~work;
  write_trace (Filename.concat work "spans.tsv");
  (* the children's spans join the parent's *)
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 (Filename.concat work "spans.tsv")
    (fun oc -> List.iter (fun f -> output_string oc (read_file f)) children)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> die "usage: probe.exe <command> ..." in
  let rec pairs = function
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" ->
      (String.sub k 2 (String.length k - 2), v) :: pairs r
    | [] -> []
    | _ -> die "arguments must be --key value pairs"
  in
  let kv = pairs rest in
  let str k = match List.assoc_opt k kv with Some v -> v | None -> die "%s needs --%s" cmd k in
  let int k = match int_of_string_opt (str k) with Some n -> n | None -> die "--%s: not an integer" k in
  if List.mem_assoc "max-answer-nodes" kv then max_answer_nodes := int "max-answer-nodes";
  match cmd with
  | "gen" ->
    gen ~workload:(str "workload") ~seed:(int "seed") ~dir:(str "dir") ~reads:(int "reads")
      ~writes:(int "writes")
  | "check" -> check ~catalog:(str "catalog") ~log:(str "log") ~limit:(int "limit")
  | "refexact" -> refexact ~dir:(str "dir") ~name:(str "name") ~acked:(str "acked")
  | "trace" ->
    trace ~dir:(str "dir") ~catalog:(str "catalog")
      ~socket:(str "socket") ~work:(str "work") ~reads:(int "reads")
  | c -> die "unknown command %S" c
