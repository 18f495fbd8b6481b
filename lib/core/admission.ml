module Database = Tse_db.Database
module View_schema = Tse_views.View_schema
module Diagnostic = Tse_analysis.Diagnostic
module Typecheck = Tse_analysis.Typecheck
module Analysis = Tse_analysis.Analysis
module Metrics = Tse_obs.Metrics

let m_gate_checks = Metrics.counter "analysis.gate_checks"
let m_gate_errors = Metrics.counter "analysis.gate_errors"
let m_gate_warnings = Metrics.counter "analysis.gate_warnings"
let m_gate_rejections = Metrics.counter "analysis.gate_rejections"

let m_augmenting = Metrics.counter "analysis.capacity_augmenting"
let m_preserving = Metrics.counter "analysis.capacity_preserving"
let m_reducing = Metrics.counter "analysis.capacity_reducing"

let capacity_of_change change =
  match change with
  | Change.Add_attribute _ | Change.Add_class _ | Change.Insert_class _ ->
      Analysis.Augmenting
  | Change.Delete_attribute _ | Change.Delete_method _ | Change.Delete_edge _
  | Change.Delete_class _ | Change.Delete_class_2 _ ->
      Analysis.Reducing
  | Change.Add_method _ | Change.Add_edge _ | Change.Rename_class _
  | Change.Partition_class _ | Change.Coalesce_classes _ ->
      Analysis.Preserving

let check db view change =
  let graph = Database.graph db in
  let resolve cls = View_schema.cid_of view cls in
  match change with
  | Change.Add_method { cls; method_name; body } -> (
      match resolve cls with
      | None -> []
      | Some cid -> Typecheck.check_method graph cid ~cls ~prop:method_name body
      )
  | Change.Partition_class { cls; predicate; into_true; into_false } -> (
      match resolve cls with
      | None -> []
      | Some cid ->
          let typing =
            Typecheck.check_predicate graph cid ~cls ~prop:"partition"
              predicate
          in
          (* lens verdict on the would-be select halves: a constant
             predicate makes one partition a statically empty view no
             update could ever land in (Lens E123) *)
          let empty_half name pred =
            match Typecheck.const_eval pred with
            | Some (Tse_store.Value.Bool false) | Some Tse_store.Value.Null ->
                [
                  Diagnostic.makef ~cls:name Diagnostic.Error ~code:"E123"
                    "partition predicate is constantly false: %s would be a \
                     statically empty view (no create/add/set can ever land \
                     in it)"
                    name;
                ]
            | _ -> []
          in
          typing
          @ empty_half into_true predicate
          @ empty_half into_false (Tse_schema.Expr.Not predicate))
  | Change.Coalesce_classes { a; b = _; as_name } ->
      [
        Diagnostic.makef ~cls:as_name Diagnostic.Warning ~code:"W212"
          "create/add through the coalesced union targets its first operand \
           %s (Section 6.5.4); membership in %s is the side-condition"
          a a;
      ]
  | Change.Add_attribute { cls; def } ->
      if Tse_store.Value.conforms def.Change.default def.Change.ty then []
      else
        [
          Diagnostic.makef ~cls ~prop:def.Change.attr_name Diagnostic.Error
            ~code:"E108" "default value %s does not conform to declared type %s"
            (Tse_store.Value.to_string def.Change.default)
            (Tse_store.Value.ty_to_string def.Change.ty);
        ]
  | _ -> []

let render diags =
  String.concat "; "
    (List.map (fun d -> Format.asprintf "%a" Diagnostic.pp d) diags)

let admit db view change =
  Tse_obs.Trace.with_span
    ~attrs:[ ("change", Change.to_string change) ]
    "evolve.analyze"
  @@ fun () ->
  Metrics.incr m_gate_checks;
  Metrics.incr
    (match capacity_of_change change with
    | Analysis.Augmenting -> m_augmenting
    | Analysis.Preserving -> m_preserving
    | Analysis.Reducing -> m_reducing);
  let diags = check db view change in
  let errs = List.filter Diagnostic.is_error diags in
  let warns = List.filter Diagnostic.is_warning diags in
  Metrics.add m_gate_errors (List.length errs);
  Metrics.add m_gate_warnings (List.length warns);
  match errs with
  | _ :: _ ->
    Metrics.incr m_gate_rejections;
    raise
      (Change.Rejected
         (Printf.sprintf "static analysis rejected %s: %s"
            (Change.to_string change) (render errs)))
  | [] ->
    List.iter
      (fun d ->
        Tse_obs.Log.warn "analysis" "%s" (Format.asprintf "%a" Diagnostic.pp d))
      diags
