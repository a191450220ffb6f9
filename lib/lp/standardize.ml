module Ds = Mf_structures.Dyn_array
module Sp = Sparse.Float_csc

type t = {
  a : float Sparse.repr;
  b : float array;
  c : float array;
  recover : float array -> float array;
  obj_offset : float;
  negated : bool;
}

(* How each model variable is represented in standard form. *)
type repr =
  | Shifted of int * float (* x = lo + y_k *)
  | Mirrored of int * float (* x = hi - y_k *)
  | Split of int * int (* x = y_k1 - y_k2 *)

let build ?lo ?hi model =
  let nvars = Model.var_count model in
  let lo_of v = match lo with Some arr -> arr.(v) | None -> Model.var_lo model v in
  let hi_of v = match hi with Some arr -> arr.(v) | None -> Model.var_hi model v in
  if List.exists (fun v -> lo_of v > hi_of v) (List.init nvars Fun.id) then None
  else begin
    let next = ref 0 in
    let fresh () =
      let k = !next in
      incr next;
      k
    in
    let upper_rows = Ds.create () in
    (* (std var, rhs) meaning y_k + slack = rhs *)
    let repr =
      Array.init nvars (fun v ->
          let l = lo_of v and h = hi_of v in
          if Float.is_finite l then begin
            let k = fresh () in
            if Float.is_finite h then Ds.push upper_rows (k, h -. l);
            Shifted (k, l)
          end
          else if Float.is_finite h then Mirrored (fresh (), h)
          else Split (fresh (), fresh ()))
    in
    (* Substitute a model expression: returns (coeffs over std vars so far,
       constant). Coefficients are accumulated in a Hashtbl keyed by std id. *)
    let substitute expr =
      let coeffs = Hashtbl.create 16 in
      let addc k v =
        Hashtbl.replace coeffs k (v +. (try Hashtbl.find coeffs k with Not_found -> 0.0))
      in
      let constant = ref (Linexpr.constant expr) in
      Linexpr.iter
        (fun v c ->
          match repr.(v) with
          | Shifted (k, l) ->
            addc k c;
            constant := !constant +. (c *. l)
          | Mirrored (k, h) ->
            addc k (-.c);
            constant := !constant +. (c *. h)
          | Split (k1, k2) ->
            addc k1 c;
            addc k2 (-.c))
        expr;
      (coeffs, !constant)
    in
    let model_constraints = Model.constraints model in
    (* Count slack columns: one per Le/Ge constraint plus one per upper row. *)
    let slack_count =
      Ds.length upper_rows
      + List.length
          (List.filter (fun (_, _, rel, _) -> rel <> Model.Eq) model_constraints)
    in
    let structural = !next in
    let total = structural + slack_count in
    (* The matrix is accumulated column-wise for the revised simplex's
       CSC form.  Each row contributes at most one entry per column (the
       per-row Hashtbl coalesces duplicates), and entries are appended in
       row-creation order, so the storage order — and with it every
       floating-point accumulation downstream — is deterministic despite
       the Hashtbl iteration in between. *)
    let columns = Array.make total [] in
    let rhs_ds = Ds.create () in
    let nrows = ref 0 in
    let slack_cursor = ref structural in
    let add_row coeffs rhs slack_sign =
      let r = !nrows in
      incr nrows;
      Hashtbl.iter
        (fun k c -> if c <> 0.0 then columns.(k) <- (r, c) :: columns.(k))
        coeffs;
      (match slack_sign with
      | 0 -> ()
      | s ->
        columns.(!slack_cursor) <- (r, float_of_int s) :: columns.(!slack_cursor);
        incr slack_cursor);
      Ds.push rhs_ds rhs
    in
    (* Variable upper-bound rows. *)
    Ds.iter
      (fun (k, rhs) ->
        let coeffs = Hashtbl.create 1 in
        Hashtbl.replace coeffs k 1.0;
        add_row coeffs rhs 1)
      upper_rows;
    (* Model constraints. *)
    List.iter
      (fun (_, expr, rel, rhs) ->
        let coeffs, const = substitute expr in
        let rhs = rhs -. const in
        match rel with
        | Model.Le -> add_row coeffs rhs 1
        | Model.Ge -> add_row coeffs rhs (-1)
        | Model.Eq -> add_row coeffs rhs 0)
      model_constraints;
    (* Objective in minimization space. *)
    let minimize, obj_expr = Model.objective model in
    let obj_expr = if minimize then obj_expr else Linexpr.scale (-1.0) obj_expr in
    let obj_coeffs, obj_offset = substitute obj_expr in
    let c = Array.make total 0.0 in
    Hashtbl.iter (fun k v -> c.(k) <- v) obj_coeffs;
    let a =
      Sp.of_columns ~rows:!nrows ~cols:total (Array.map List.rev columns)
    in
    let b = Array.init (Ds.length rhs_ds) (Ds.get rhs_ds) in
    let recover std =
      Array.init nvars (fun v ->
          match repr.(v) with
          | Shifted (k, l) -> l +. std.(k)
          | Mirrored (k, h) -> h -. std.(k)
          | Split (k1, k2) -> std.(k1) -. std.(k2))
    in
    Some { a; b; c; recover; obj_offset; negated = not minimize }
  end

let model_objective t std_obj =
  let v = std_obj +. t.obj_offset in
  if t.negated then -.v else v
