(* The in-process half of the serving benchmark.

   [replay trace IN OUT] replays a workload's passes through the public
   functions of each layer, in the order the server calls them, and writes
   the per-layer timings to OUT and the spans to the path IN names.
   [replay check IN OUT] optimizes each listed statement from scratch and
   reports every plan that differs from the one the server returned.

   Both read a JSON document written by run.py. *)

module J = Qopt_util.Json
module O = Qopt_optimizer
module Sql = Qopt_sql
module Srv = Qopt_server

let now = Qopt_util.Timer.monotonic_now

let env = O.Env.serial

(* The serve command's canned coefficients, so predictions match the
   server's. *)
let model = Cote.Time_model.make ~c_nljn:2e-6 ~c_mgjn:5e-6 ~c_hsjn:4e-6 ()

let knobs = (List.hd Srv.Level.default_levels).Cote.Multi_level.level_knobs

let schemas =
  [
    ("warehouse", Qopt_workloads.Warehouse.schema ~partitioned:false);
    ("tpch", Qopt_workloads.Tpch.schema ~partitioned:false);
    ("giant", Qopt_workloads.Giant.schema ());
  ]

let fail fmt = Printf.ksprintf failwith fmt

let member k j =
  match J.member k j with Some v -> v | None -> fail "missing field %S" k

let str k j =
  match J.get_string (member k j) with Some s -> s | None -> fail "%S" k

let items = function J.Arr l -> l | _ -> fail "expected an array"

let read_json path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse text with Ok j -> j | Error e -> fail "%s: %s" path e

let write_json path j =
  let oc = open_out_bin path in
  output_string oc (J.to_string j);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written out at the end                       *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* index of the enclosing span, -1 for a request root *)
  rid : int;
}

let spans : span list ref = ref []

let n_spans = ref 0

let tracing = ref false

let stack = ref []

let rid = ref 0

(* [timed name f] runs [f], returning its result and elapsed seconds; while
   tracing it also records a span under the innermost open one. *)
let timed name f =
  if not !tracing then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let idx = !n_spans in
    incr n_spans;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      spans := { id = idx; name; start = t0; stop = t1; parent; rid = !rid }
               :: !spans;
      t1 -. t0
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let write_spans path =
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("id", J.int s.id); ("name", J.Str s.name);
                ("start_us", J.Num (s.start *. 1e6));
                ("end_us", J.Num (s.stop *. 1e6)); ("parent", J.int s.parent);
                ("rid", J.int s.rid);
              ]));
      output_char oc '\n')
    !spans;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-pass accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* Stage times of one request, in pipeline order; a stage the request did
   not reach reads 0. *)
let stages =
  [ "server.decode"; "sqlfront.parse"; "sqlfront.template"; "sqlfront.bind";
    "plan_cache.lookup"; "cote.estimate"; "optimizer.compile";
    "server.encode" ]

type acc = {
  per_request : (string, float list) Hashtbl.t;  (* compile requests *)
  samples : (string, float list) Hashtbl.t;  (* every call of a layer *)
  mutable estimate_s : float;  (* COTE time of DP compiles *)
  mutable compile_s : float;  (* their optimizer time *)
  mutable est_plans : int;
  mutable gen_plans : int;
  mutable kept : int;
  mutable generated : int;  (* join plans plus scan plans *)
  mutable aborts : int;
  mutable breakdown : O.Instrument.snapshot;
}

let new_acc () =
  {
    per_request = Hashtbl.create 16;
    samples = Hashtbl.create 16;
    estimate_s = 0.0;
    compile_s = 0.0;
    est_plans = 0;
    gen_plans = 0;
    kept = 0;
    generated = 0;
    aborts = 0;
    breakdown = O.Instrument.zero;
  }

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* The replayed pipeline                                                *)
(* ------------------------------------------------------------------ *)

type cfg = { budget : O.Budget.t; plan_cache : unit Cote.Plan_cache.t option }

let estimate_reply id (p : Cote.Predict.prediction) =
  let e = p.Cote.Predict.estimate in
  Srv.Proto.R_estimate
    ( id,
      {
        Srv.Proto.e_predicted_s = p.Cote.Predict.seconds;
        e_level = "dp_default";
        e_cache_hit = false;
        e_joins = e.Cote.Estimator.joins;
        e_nljn = e.Cote.Estimator.nljn;
        e_mgjn = e.Cote.Estimator.mgjn;
        e_hsjn = e.Cote.Estimator.hsjn;
        e_entries = e.Cote.Estimator.entries;
        e_estimation_s = e.Cote.Estimator.elapsed;
      } )

let compile_reply id (plan : O.Plan.t option) ~joins ~kept ~entries ~elapsed
    ~regime =
  Srv.Proto.R_compile
    ( id,
      {
        Srv.Proto.c_plan = Option.map (Format.asprintf "%a" O.Plan.pp_compact) plan;
        c_cost = (match plan with Some p -> p.O.Plan.cost | None -> 0.0);
        c_card = (match plan with Some p -> p.O.Plan.card | None -> 0.0);
        c_joins = joins;
        c_kept = kept;
        c_entries = entries;
        c_elapsed_s = elapsed;
        c_predicted_s = 0.0;
        c_level = "dp_default";
        c_queue_s = 0.0;
        c_cache_hit = false;
        c_plan_cached = false;
        c_regime = regime;
      } )

let replay_request cfg acc ~id text =
  let row = Hashtbl.create 8 in
  let stage name f =
    let r, dt = timed name f in
    Hashtbl.replace row name dt;
    push acc.samples name dt;
    r
  in
  let req =
    stage "server.decode" (fun () ->
        match Result.bind (J.parse text) Srv.Proto.request_of_json with
        | Ok r -> r
        | Error e -> fail "request: %s" e)
  in
  let op, sql, schema =
    match req with
    | Srv.Proto.Compile { sql; schema; _ } -> (`Compile, sql, schema)
    | Srv.Proto.Estimate { sql; schema; _ } -> (`Estimate, sql, schema)
    | _ -> fail "unexpected request"
  in
  let schema_name = Option.value ~default:"warehouse" schema in
  let schema = List.assoc schema_name schemas in
  let ast = stage "sqlfront.parse" (fun () -> Sql.Parser.parse sql) in
  let key =
    match (op, cfg.plan_cache) with
    | `Compile, Some _ ->
      Some (stage "sqlfront.template" (fun () -> Sql.Template.key_of ast))
    | _ -> None
  in
  let block =
    stage "sqlfront.bind" (fun () ->
        Sql.Binder.bind ~name:(Printf.sprintf "q%d" id) schema ast)
  in
  let predict () =
    let t0 = now () in
    match
      timed "cote.estimate" (fun () ->
          Cote.Predict.compile_time ~budget:cfg.budget ~knobs ~model env block)
    with
    | p, dt ->
      Hashtbl.replace row "cote.estimate" dt;
      push acc.samples "cote.estimate" dt;
      Some (p, dt)
    | exception O.Budget.Exceeded _ ->
      let dt = now () -. t0 in
      acc.aborts <- acc.aborts + 1;
      Hashtbl.replace row "cote.estimate" dt;
      push acc.samples "cote.budget_abort" dt;
      None
  in
  let fallback () =
    let fb, dt =
      timed "spanning_tree.compile" (fun () -> O.Optimizer.optimize_fallback env block)
    in
    Hashtbl.replace row "optimizer.compile" dt;
    push acc.samples "spanning_tree.compile" dt;
    (fb.O.Optimizer.fb_best, fb.O.Optimizer.fb_joins, fb.O.Optimizer.fb_elapsed)
  in
  let reply =
    match op with
    | `Estimate -> (
      match predict () with
      | Some (p, _) -> estimate_reply id p
      | None -> Srv.Proto.R_error { id; message = "budget exceeded" })
    | `Compile -> (
      let hit =
        match (cfg.plan_cache, key) with
        | Some pc, Some key -> (
          match
            stage "plan_cache.lookup" (fun () ->
                Cote.Plan_cache.lookup pc ~key:(schema_name ^ "|" ^ key) block)
          with
          | Cote.Plan_cache.Hit { plan; _ } -> Some plan
          | Cote.Plan_cache.Miss | Cote.Plan_cache.Invalidated _ -> None)
        | _ -> None
      in
      match hit with
      | Some plan ->
        compile_reply id (Some plan) ~joins:0 ~kept:0 ~entries:0 ~elapsed:0.0
          ~regime:"dp"
      | None ->
        let plan, reply =
          match predict () with
          | None ->
            let plan, joins, elapsed = fallback () in
            ( plan,
              compile_reply id plan ~joins ~kept:0 ~entries:0 ~elapsed
                ~regime:"greedy" )
          | Some (p, est_dt) -> (
            match
              timed "optimizer.compile" (fun () ->
                  O.Optimizer.optimize env ~budget:cfg.budget ~knobs block)
            with
            | r, dt ->
              Hashtbl.replace row "optimizer.compile" dt;
              push acc.samples "optimizer.compile" dt;
              let e = p.Cote.Predict.estimate in
              acc.estimate_s <- acc.estimate_s +. est_dt;
              acc.compile_s <- acc.compile_s +. dt;
              acc.est_plans <- acc.est_plans + Cote.Estimator.total e;
              acc.gen_plans <-
                acc.gen_plans + O.Memo.counts_total r.O.Optimizer.generated;
              acc.kept <- acc.kept + r.O.Optimizer.kept;
              acc.generated <-
                acc.generated
                + O.Memo.counts_total r.O.Optimizer.generated
                + r.O.Optimizer.scan_plans;
              acc.breakdown <- O.Instrument.merge acc.breakdown r.O.Optimizer.breakdown;
              ( r.O.Optimizer.best,
                compile_reply id r.O.Optimizer.best ~joins:r.O.Optimizer.joins
                  ~kept:r.O.Optimizer.kept ~entries:r.O.Optimizer.entries
                  ~elapsed:r.O.Optimizer.elapsed ~regime:"dp" )
            | exception O.Budget.Exceeded _ ->
              let plan, joins, elapsed = fallback () in
              ( plan,
                compile_reply id plan ~joins ~kept:0 ~entries:0 ~elapsed
                  ~regime:"dp_budget_fallback" ))
        in
        (match (cfg.plan_cache, key, plan) with
        | Some pc, Some key, Some plan ->
          Cote.Plan_cache.store pc ~key:(schema_name ^ "|" ^ key) block ~plan ()
        | _ -> ());
        reply)
  in
  ignore
    (stage "server.encode" (fun () ->
         J.to_string (Srv.Proto.reply_to_json reply)));
  if op = `Compile then
    List.iter
      (fun s ->
        push acc.per_request s (Option.value ~default:0.0 (Hashtbl.find_opt row s)))
      stages

let replay_pass cfg acc requests =
  let t0 = now () in
  List.iter
    (fun j ->
      incr rid;
      let text = str "text" j in
      ignore (timed "request" (fun () -> replay_request cfg acc ~id:!rid text)))
    requests;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let budget_of j =
  match J.member "budget" j with
  | Some (J.Obj _ as b) ->
    O.Budget.make
      ?max_memo_entries:(Option.bind (J.member "max_memo_entries" b) J.get_int)
      ?max_kept_plans:(Option.bind (J.member "max_kept_plans" b) J.get_int)
      ()
  | _ -> O.Budget.unlimited

let trace input output =
  let j = read_json input in
  let cfg =
    {
      budget = budget_of j;
      plan_cache =
        (if J.get_bool (member "plan_cache" j) = Some true then
           Some (Cote.Plan_cache.create ~shared:true ())
         else None);
    }
  in
  let warm, traced, plain =
    match items (member "passes" j) with
    | [ w; t; p ] -> (items w, items t, items p)
    | _ -> fail "expected three passes: warm-up, traced, plain"
  in
  ignore (replay_pass cfg (new_acc ()) warm);
  tracing := true;
  let acc = new_acc () in
  let traced_s = replay_pass cfg acc traced in
  tracing := false;
  let plain_s = replay_pass cfg (new_acc ()) plain in
  write_spans (str "spans" j);
  let med name = median (Option.value ~default:[] (Hashtbl.find_opt acc.samples name)) in
  let stage_median s =
    median (Option.value ~default:[] (Hashtbl.find_opt acc.per_request s))
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let b = acc.breakdown in
  let num k v = (k, J.Num v) in
  write_json output
    (J.Obj
       [
         num "sqlfront.parse_us" (med "sqlfront.parse" *. 1e6);
         num "sqlfront.template_us" (med "sqlfront.template" *. 1e6);
         num "sqlfront.bind_us" (med "sqlfront.bind" *. 1e6);
         num "server.decode_us" (med "server.decode" *. 1e6);
         num "server.encode_us" (med "server.encode" *. 1e6);
         num "plan_cache.lookup_us" (med "plan_cache.lookup" *. 1e6);
         num "cote.estimate_ms" (med "cote.estimate" *. 1e3);
         num "cote.overhead_pct"
           (if acc.compile_s > 0.0 then 100.0 *. acc.estimate_s /. acc.compile_s
            else 0.0);
         num "cote.budget_abort_ms" (med "cote.budget_abort" *. 1e3);
         num "cote.plan_count_ratio" (ratio acc.est_plans acc.gen_plans);
         num "optimizer.compile_ms" (med "optimizer.compile" *. 1e3);
         num "optimizer.nljn_ms" (b.O.Instrument.s_nljn *. 1e3);
         num "optimizer.mgjn_ms" (b.O.Instrument.s_mgjn *. 1e3);
         num "optimizer.hsjn_ms" (b.O.Instrument.s_hsjn *. 1e3);
         num "optimizer.save_ms" (b.O.Instrument.s_save *. 1e3);
         num "optimizer.card_ms" (b.O.Instrument.s_card *. 1e3);
         num "optimizer.scan_ms" (b.O.Instrument.s_scan *. 1e3);
         num "optimizer.other_ms" (b.O.Instrument.s_other *. 1e3);
         num "memo.kept_ratio" (ratio acc.kept acc.generated);
         num "budget.aborts" (float_of_int acc.aborts);
         num "spanning_tree.compile_ms" (med "spanning_tree.compile" *. 1e3);
         num "stage_median_sum_ms"
           (List.fold_left (fun s st -> s +. stage_median st) 0.0 stages *. 1e3);
         num "traced_pass_s" traced_s;
         num "plain_pass_s" plain_s;
       ])

(* Re-optimize each statement from scratch and compare plans. *)
let check input output =
  let j = read_json input in
  let mismatches =
    List.filter_map
      (fun c ->
        let schema = List.assoc (str "schema" c) schemas in
        let block = Sql.Binder.parse_and_bind schema (str "sql" c) in
        let r = O.Optimizer.optimize env ~knobs block in
        let fresh =
          match r.O.Optimizer.best with
          | Some p -> Format.asprintf "%a" O.Plan.pp_compact p
          | None -> ""
        in
        if fresh = str "plan" c then None
        else
          Some
            (J.Obj
               [ ("sql", J.Str (str "sql" c)); ("served", J.Str (str "plan" c));
                 ("fresh", J.Str fresh) ]))
      (items (member "checks" j))
  in
  write_json output (J.Obj [ ("mismatches", J.Arr mismatches) ])

let () =
  match Array.to_list Sys.argv with
  | [ _; "trace"; input; output ] -> trace input output
  | [ _; "check"; input; output ] -> check input output
  | _ ->
    prerr_endline "usage: replay (trace|check) INPUT.json OUTPUT.json";
    exit 2
