(* Sparse LU factorisation of a simplex basis, with a product-form eta
   file for cheap basis exchanges, functorised over an ordered field.

   The factorisation is left-looking Gilbert–Peierls: basis columns are
   eliminated one at a time, each by a sparse lower-triangular solve
   whose reached set is found by a symbolic DFS over the L pattern, so
   the numeric work is proportional to the fill actually produced rather
   than to dim^2.  Pivoting is Markowitz-flavoured: columns are
   processed in order of increasing entry count, and within a column the
   pivot row is chosen, among rows whose magnitude clears a threshold
   fraction of the column maximum, as the one with the fewest entries in
   the original basis matrix (lowest row index on ties — every choice
   rule here is deterministic, which the search layer's bit-identity
   contract depends on).

   Basis exchanges are absorbed by product-form eta vectors: replacing
   the column at basis position [p] by an entering column with FTRAN
   image [w] appends the eta (p, w), through which every later FTRAN and
   BTRAN is threaded.  The driver refactorises from scratch when the eta
   file grows past its cap, when an eta pivot is too small to divide by
   safely, or when the maintained basic solution has drifted — the
   classic Forrest–Tomlin-era recipe, with the simpler product-form
   update standing in for the FT row/column surgery.

   Exact fields ([eps = 0]) run the same code with exact zero tests; the
   threshold pivoting degenerates to "any nonzero", and periodic
   refactorisation doubles as a guard against rational operand growth in
   long eta chains. *)

exception Singular of int
(* Raised by [factorize] when no acceptable pivot exists at the given
   elimination step: the proposed basis is (numerically) singular. *)

module Make (F : Mf_numeric.Ordered_field.S) = struct
  let exact = F.compare F.eps F.zero = 0 && F.compare F.rel_eps F.zero = 0

  type eta = {
    e_pos : int;  (* basis position whose column was replaced *)
    e_piv : F.t;  (* w.(e_pos), the eta pivot *)
    e_ind : int array;  (* other positions with nonzero w *)
    e_val : F.t array;
  }

  type t = {
    dim : int;
    pivrow : int array;  (* step -> original row *)
    rowpos : int array;  (* original row -> step *)
    cpos : int array;  (* step -> basis position eliminated at that step *)
    l_ind : int array array;  (* step -> rows of the multiplier column *)
    l_val : F.t array array;
    u_ind : int array array;  (* step -> earlier steps of the U column *)
    u_val : F.t array array;
    u_diag : F.t array;
    lu_nnz : int;  (* fill of L + U, for the refactorisation trigger *)
    mutable etas : eta array;
    mutable n_etas : int;
    (* scratch buffers, one instance per factorisation object *)
    wrow : F.t array;  (* row-indexed work vector *)
    zstep : F.t array;  (* step-indexed work vector *)
  }

  let dim t = t.dim
  let eta_count t = t.n_etas
  let fill t = t.lu_nnz

  (* Relative pivot threshold of the inexact instance: a candidate must
     reach this fraction of the column's largest magnitude before sparsity
     may prefer it.  0.01 is the usual Markowitz compromise — loose
     enough to keep fill low, tight enough for stability. *)
  let threshold = F.of_float 0.01

  (* [repair = None] raises [Singular] at the first step without an
     acceptable pivot; [Some report] substitutes a unit column there
     and calls [report] (see [factorize_repair]). *)
  let eliminate repair ~dim ~col ~(basis : int array) =
    if Array.length basis <> dim then invalid_arg "Lu.factorize: basis length";
    let pivrow = Array.make dim (-1) in
    let rowpos = Array.make dim (-1) in
    let cpos = Array.make dim (-1) in
    let l_ind = Array.make dim [||] in
    let l_val = Array.make dim [||] in
    let u_ind = Array.make dim [||] in
    let u_val = Array.make dim [||] in
    let u_diag = Array.make dim F.zero in
    (* Column order: increasing entry count, ties by basis position.
       Together with the min-row-count pivot rule this approximates the
       Markowitz merit (r-1)(c-1) without dynamic count maintenance.
       Empty columns, which can never pivot, go last: a repair then
       completes the basis with the rows the other columns leave
       uncovered instead of taking a row one of them needs. *)
    let counts = Array.make dim 0 in
    let row_counts = Array.make dim 0 in
    for p = 0 to dim - 1 do
      let c = ref 0 in
      col basis.(p) (fun r _ ->
          incr c;
          row_counts.(r) <- row_counts.(r) + 1);
      counts.(p) <- !c
    done;
    let key = Array.map (fun c -> if c = 0 then max_int else c) counts in
    let order = Array.init dim Fun.id in
    Array.sort
      (fun p q ->
        let d = compare key.(p) key.(q) in
        if d <> 0 then d else compare p q)
      order;
    let w = Array.make dim F.zero in
    let touched = Array.make dim 0 in
    (* Explicit membership flags: testing [w = 0] alone would re-admit a
       row whose value cancelled to exact zero and then refilled, and the
       duplicate touched entry would duplicate its L entry. *)
    let intouch = Array.make dim false in
    (* Symbolic DFS state: visited flag per step plus an explicit stack
       (column patterns can chain through the whole factor). *)
    let visited = Array.make dim false in
    let steps = Array.make dim 0 in
    let stack = Array.make dim 0 in
    let spos = Array.make dim 0 in
    (* Lowest row not yet pivoted: rows are only ever covered, so the
       repair's search resumes where the previous one stopped. *)
    let uncovered = ref 0 in
    for k = 0 to dim - 1 do
      let p = order.(k) in
      cpos.(k) <- p;
      (* Gather the column into the dense work vector. *)
      let nt = ref 0 in
      col basis.(p) (fun r v ->
          if F.compare v F.zero <> 0 then begin
            if not intouch.(r) then begin
              intouch.(r) <- true;
              touched.(!nt) <- r;
              incr nt
            end;
            w.(r) <- F.add w.(r) v
          end);
      (* Symbolic: every earlier step reachable from the pattern through
         the L graph will receive a (possibly zero) U entry. *)
      let ns = ref 0 in
      for ti = 0 to !nt - 1 do
        let s0 = rowpos.(touched.(ti)) in
        if s0 >= 0 && not visited.(s0) then begin
          let top = ref 0 in
          stack.(0) <- s0;
          spos.(0) <- 0;
          visited.(s0) <- true;
          while !top >= 0 do
            let s = stack.(!top) in
            let i = spos.(!top) in
            let li = l_ind.(s) in
            if i < Array.length li then begin
              spos.(!top) <- i + 1;
              let s' = rowpos.(li.(i)) in
              if s' >= 0 && not visited.(s') then begin
                visited.(s') <- true;
                incr top;
                stack.(!top) <- s';
                spos.(!top) <- 0
              end
            end
            else begin
              steps.(!ns) <- s;
              incr ns;
              decr top
            end
          done
        end
      done;
      let ns = !ns in
      (* Ascending step order is a valid elimination order because L
         edges only point forward. *)
      let sub = Array.sub steps 0 ns in
      Array.sort compare sub;
      for si = 0 to ns - 1 do
        let s = sub.(si) in
        visited.(s) <- false;
        let v = w.(pivrow.(s)) in
        if F.compare v F.zero <> 0 then begin
          let li = l_ind.(s) and lv = l_val.(s) in
          for e = 0 to Array.length li - 1 do
            let r = li.(e) in
            if not intouch.(r) then begin
              intouch.(r) <- true;
              touched.(!nt) <- r;
              incr nt
            end;
            w.(r) <- F.sub w.(r) (F.mul lv.(e) v)
          done
        end
      done;
      (* U column: the values now sitting at already-pivoted rows. *)
      let un = ref 0 in
      for si = 0 to ns - 1 do
        let s = sub.(si) in
        if F.compare w.(pivrow.(s)) F.zero <> 0 then incr un
      done;
      let ui = Array.make !un 0 and uv = Array.make !un F.zero in
      let uc = ref 0 in
      for si = 0 to ns - 1 do
        let s = sub.(si) in
        let v = w.(pivrow.(s)) in
        if F.compare v F.zero <> 0 then begin
          ui.(!uc) <- s;
          uv.(!uc) <- v;
          incr uc
        end
      done;
      u_ind.(k) <- ui;
      u_val.(k) <- uv;
      (* Pivot choice among unpivoted touched rows: magnitude threshold,
         then fewest original-matrix entries, then lowest row index. *)
      let cmax = ref F.zero in
      for ti = 0 to !nt - 1 do
        let r = touched.(ti) in
        if rowpos.(r) < 0 then begin
          let a = F.abs w.(r) in
          if F.compare a !cmax > 0 then cmax := a
        end
      done;
      let pr, d =
        if F.compare !cmax F.eps > 0 then begin
          let bar = if exact then F.zero else F.mul threshold !cmax in
          let best = ref (-1) in
          for ti = 0 to !nt - 1 do
            let r = touched.(ti) in
            if rowpos.(r) < 0 && F.compare (F.abs w.(r)) bar > 0 then
              if
                !best < 0
                ||
                let d = compare row_counts.(r) row_counts.(!best) in
                d < 0 || (d = 0 && r < !best)
              then best := r
          done;
          (!best, w.(!best))
        end
        else begin
          (* Clean the work vector (and empty the touched list, so the L
             pass below has nothing to gather) before reporting, so a
             caller catching [Singular] can retry factorize on the same
             work buffers. *)
          for ti = 0 to !nt - 1 do
            w.(touched.(ti)) <- F.zero;
            intouch.(touched.(ti)) <- false
          done;
          nt := 0;
          match repair with
          | None -> raise (Singular k)
          | Some report ->
            (* Basis repair: eliminate the unit column of the lowest
               uncovered row instead.  That row is unpivoted, so the unit
               column reaches no earlier step: no U entries, no L
               multipliers, pivot 1. *)
            while rowpos.(!uncovered) >= 0 do
              incr uncovered
            done;
            report ~pos:p ~row:!uncovered;
            u_ind.(k) <- [||];
            u_val.(k) <- [||];
            (!uncovered, F.one)
        end
      in
      pivrow.(k) <- pr;
      rowpos.(pr) <- k;
      u_diag.(k) <- d;
      let ln = ref 0 in
      for ti = 0 to !nt - 1 do
        let r = touched.(ti) in
        if rowpos.(r) < 0 && F.compare w.(r) F.zero <> 0 then incr ln
      done;
      let li = Array.make !ln 0 and lv = Array.make !ln F.zero in
      let lc = ref 0 in
      for ti = 0 to !nt - 1 do
        let r = touched.(ti) in
        if rowpos.(r) < 0 && F.compare w.(r) F.zero <> 0 then begin
          li.(!lc) <- r;
          lv.(!lc) <- F.div w.(r) d;
          incr lc
        end;
        w.(r) <- F.zero;
        intouch.(r) <- false
      done;
      l_ind.(k) <- li;
      l_val.(k) <- lv
    done;
    let lu_nnz =
      let s = ref dim in
      for k = 0 to dim - 1 do
        s := !s + Array.length l_ind.(k) + Array.length u_ind.(k)
      done;
      !s
    in
    {
      dim;
      pivrow;
      rowpos;
      cpos;
      l_ind;
      l_val;
      u_ind;
      u_val;
      u_diag;
      lu_nnz;
      etas = [||];
      n_etas = 0;
      wrow = Array.make dim F.zero;
      zstep = Array.make dim F.zero;
    }

  let factorize ~dim ~col ~basis = eliminate None ~dim ~col ~basis
  let factorize_repair ~repair ~dim ~col ~basis = eliminate (Some repair) ~dim ~col ~basis

  (* x := B^-1 rhs.  [rhs] is row-indexed and is not modified; the result
     is written to [out], indexed by basis position. *)
  let ftran t ~rhs ~out =
    let d = t.dim in
    let w = t.wrow in
    Array.blit rhs 0 w 0 d;
    (* L solve, forward over steps. *)
    for k = 0 to d - 1 do
      let v = w.(t.pivrow.(k)) in
      if F.compare v F.zero <> 0 then begin
        let li = t.l_ind.(k) and lv = t.l_val.(k) in
        for e = 0 to Array.length li - 1 do
          w.(li.(e)) <- F.sub w.(li.(e)) (F.mul lv.(e) v)
        done
      end
    done;
    (* U solve, backward over steps; scatter into basis positions. *)
    for k = d - 1 downto 0 do
      let pv = w.(t.pivrow.(k)) in
      let x =
        if F.compare pv F.zero = 0 then F.zero else F.div pv t.u_diag.(k)
      in
      if F.compare x F.zero <> 0 then begin
        let ui = t.u_ind.(k) and uv = t.u_val.(k) in
        for e = 0 to Array.length ui - 1 do
          let r = t.pivrow.(ui.(e)) in
          w.(r) <- F.sub w.(r) (F.mul uv.(e) x)
        done
      end;
      out.(t.cpos.(k)) <- x;
      w.(t.pivrow.(k)) <- F.zero
    done;
    (* Thread through the eta file, oldest first. *)
    for e = 0 to t.n_etas - 1 do
      let eta = t.etas.(e) in
      let v = F.div out.(eta.e_pos) eta.e_piv in
      out.(eta.e_pos) <- v;
      if F.compare v F.zero <> 0 then
        for i = 0 to Array.length eta.e_ind - 1 do
          out.(eta.e_ind.(i)) <- F.sub out.(eta.e_ind.(i)) (F.mul eta.e_val.(i) v)
        done
    done

  (* y := B^-T cvec.  [cvec] is indexed by basis position and is not
     modified; the result is written to [out], row-indexed. *)
  let btran t ~cvec ~out =
    let d = t.dim in
    let z = t.wrow in
    Array.blit cvec 0 z 0 d;
    (* Eta file transposed, newest first. *)
    for e = t.n_etas - 1 downto 0 do
      let eta = t.etas.(e) in
      let s = ref F.zero in
      for i = 0 to Array.length eta.e_ind - 1 do
        s := F.add !s (F.mul eta.e_val.(i) z.(eta.e_ind.(i)))
      done;
      z.(eta.e_pos) <- F.div (F.sub z.(eta.e_pos) !s) eta.e_piv
    done;
    (* U^T solve, forward over steps. *)
    let zs = t.zstep in
    for k = 0 to d - 1 do
      let s = ref z.(t.cpos.(k)) in
      let ui = t.u_ind.(k) and uv = t.u_val.(k) in
      for e = 0 to Array.length ui - 1 do
        s := F.sub !s (F.mul uv.(e) zs.(ui.(e)))
      done;
      zs.(k) <- F.div !s t.u_diag.(k)
    done;
    (* L^T solve, backward over steps; scatter into original rows. *)
    for k = d - 1 downto 0 do
      let s = ref zs.(k) in
      let li = t.l_ind.(k) and lv = t.l_val.(k) in
      for e = 0 to Array.length li - 1 do
        s := F.sub !s (F.mul lv.(e) out.(li.(e)))
      done;
      out.(t.pivrow.(k)) <- !s
    done

  (* Smallest eta pivot magnitude the update accepts before demanding a
     refactorisation; generous because a bad division here poisons every
     later solve.  Exact fields only reject a true zero. *)
  let eta_pivot_floor = F.of_float 1e-7

  let update t ~w ~pos =
    let piv = w.(pos) in
    let ok =
      if exact then F.compare piv F.zero <> 0
      else F.compare (F.abs piv) eta_pivot_floor > 0
    in
    if not ok then false
    else begin
      let n = ref 0 in
      for i = 0 to t.dim - 1 do
        if i <> pos && F.compare w.(i) F.zero <> 0 then incr n
      done;
      let e_ind = Array.make !n 0 and e_val = Array.make !n F.zero in
      let c = ref 0 in
      for i = 0 to t.dim - 1 do
        if i <> pos && F.compare w.(i) F.zero <> 0 then begin
          e_ind.(!c) <- i;
          e_val.(!c) <- w.(i);
          incr c
        end
      done;
      if t.n_etas = Array.length t.etas then begin
        let cap = Stdlib.max 8 (2 * Array.length t.etas) in
        let bigger =
          Array.make cap { e_pos = 0; e_piv = F.one; e_ind = [||]; e_val = [||] }
        in
        Array.blit t.etas 0 bigger 0 t.n_etas;
        t.etas <- bigger
      end;
      t.etas.(t.n_etas) <- { e_pos = pos; e_piv = piv; e_ind; e_val };
      t.n_etas <- t.n_etas + 1;
      true
    end
end
