(* Two-phase primal simplex, functorised over an ordered field.

   Numerical discipline (inexact fields only; exact fields have
   [eps] = [rel_eps] = 0 and every test below degenerates to an exact
   comparison):

   - rows are equilibrated by the power of two nearest their largest
     coefficient magnitude, so row norms start in [1, 2);
   - every threshold is relative: a value is "zero" against
     [eps + rel_eps * norm] where the norm of each row (and of the
     reduced-cost row) is maintained across pivots, not frozen at its
     initial value — fill-in during pivoting is what broke the absolute
     thresholds this file used to rely on;
   - pricing is Devex by default, falling back to Bland's rule when a
     stall detector sees no objective progress over a window of
     degenerate pivots, and returning to Devex as soon as the objective
     moves again.  Bland's rule terminates from any tableau and strict
     objective improvements can never revisit a basis, so the
     combination keeps the anti-cycling guarantee while avoiding
     Bland's pathological pivot counts on large degenerate tableaus;
   - a pivot budget bounds the whole solve; exhausting it is reported
     as the typed [Stalled] outcome instead of looping forever. *)

(* Raised on NaN/infinite input coefficients, which would otherwise
   silently corrupt the row equilibration and every tolerance after it.
   [row] >= 0 names the offending constraint row ([col = n] meaning its
   right-hand side); [row = -1] is the objective. *)
exception Non_finite of { row : int; col : int }

type pricing = Devex | Bland

module Make (F : Mf_numeric.Ordered_field.S) = struct
  type outcome =
    | Optimal of F.t array * F.t
    | Infeasible
    | Unbounded
    | Stalled

  type detail = {
    outcome : outcome;
    basis : int array;
    iterations : int;
    degenerate : int;
    bland_pivots : int;
    factorizations : int;
    eta_updates : int;
    refactorizations : int;
    fallbacks : int;
    repairs : int;
  }

  let exact = F.compare F.eps F.zero = 0 && F.compare F.rel_eps F.zero = 0

  (* The tableau holds the constraint rows [t] (each of length [cols+1],
     the last entry being the rhs) and the reduced-cost row [z] (length
     [cols+1], with [z.(cols) = -objective]).  [basis.(i)] is the variable
     basic in row [i].  [norms.(i)] tracks the largest coefficient
     magnitude of row [i] (rhs excluded); [znorm] likewise for [z]. *)

  let tol_for ~relative norm =
    if relative then F.add F.eps (F.mul F.rel_eps norm) else F.eps

  let pivot t z basis norms znorm ~row ~col =
    let cols = Array.length z - 1 in
    let piv = t.(row).(col) in
    let inv = F.div F.one piv in
    (let r = t.(row) in
     let mx = ref F.zero in
     for j = 0 to cols do
       r.(j) <- F.mul r.(j) inv;
       if j < cols then begin
         let v = F.abs r.(j) in
         if F.compare v !mx > 0 then mx := v
       end
     done;
     norms.(row) <- !mx);
    Array.iteri
      (fun r tr ->
        if r <> row then begin
          let factor = tr.(col) in
          if F.compare factor F.zero <> 0 then begin
            let mx = ref F.zero in
            for j = 0 to cols do
              tr.(j) <- F.sub tr.(j) (F.mul factor t.(row).(j));
              if j < cols then begin
                let v = F.abs tr.(j) in
                if F.compare v !mx > 0 then mx := v
              end
            done;
            (* The eliminated entry is zero by construction; storing the
               exact zero (rather than the rounding residue) is what
               makes basic columns unit columns. *)
            tr.(col) <- F.zero;
            norms.(r) <- !mx
          end
        end)
      t;
    let factor = z.(col) in
    if F.compare factor F.zero <> 0 then begin
      let mx = ref F.zero in
      for j = 0 to cols do
        z.(j) <- F.sub z.(j) (F.mul factor t.(row).(j));
        if j < cols then begin
          let v = F.abs z.(j) in
          if F.compare v !mx > 0 then mx := v
        end
      done;
      z.(col) <- F.zero;
      znorm := !mx
    end;
    basis.(row) <- col

  type counters = {
    mutable iters : int;
    mutable degen : int;
    mutable bland : int;
    mutable factz : int;  (* LU factorizations (revised path) *)
    mutable etaups : int;  (* product-form eta updates (revised path) *)
    mutable refz : int;  (* refactorizations after the first (revised path) *)
    mutable fallbacks : int;  (* restarts from the all-artificial basis *)
    mutable repairs : int;  (* basis positions replaced by LU repair *)
  }

  let fresh_counters () =
    { iters = 0; degen = 0; bland = 0; factz = 0; etaups = 0; refz = 0; fallbacks = 0; repairs = 0 }

  let detail_of counters ~basis outcome =
    {
      outcome;
      basis;
      iterations = counters.iters;
      degenerate = counters.degen;
      bland_pivots = counters.bland;
      factorizations = counters.factz;
      eta_updates = counters.etaups;
      refactorizations = counters.refz;
      fallbacks = counters.fallbacks;
      repairs = counters.repairs;
    }

  (* One phase of the simplex: pivot until optimal/unbounded or the
     budget runs out.  [weights] are the Devex reference weights, kept as
     plain machine floats even for exact fields — they only *rank*
     candidate columns, so their precision cannot affect correctness,
     and keeping them out of [F] avoids ballooning exact rationals. *)
  let iterate t z basis norms znorm weights counters ~eligible ~relative ~pricing
      ~iter_budget ~stall_k =
    let rows = Array.length t in
    let cols = Array.length z - 1 in
    let mode = ref pricing in
    let since_improve = ref 0 in
    let best_obj = ref (F.neg z.(cols)) in
    let rec loop () =
      if counters.iters >= iter_budget then `Stalled
      else begin
        let ztol = tol_for ~relative !znorm in
        let neg_ztol = F.neg ztol in
        let entering =
          match !mode with
          | Bland ->
            let e = ref (-1) in
            let j = ref 0 in
            while !e < 0 && !j < cols do
              if eligible !j && F.compare z.(!j) neg_ztol < 0 then e := !j;
              incr j
            done;
            !e
          | Devex ->
            let e = ref (-1) and best = ref 0.0 in
            for j = 0 to cols - 1 do
              if eligible j && F.compare z.(j) neg_ztol < 0 then begin
                let zf = F.to_float z.(j) in
                let score = zf *. zf /. weights.(j) in
                if score > !best then begin
                  best := score;
                  e := j
                end
              end
            done;
            !e
        in
        if entering < 0 then `Optimal
        else begin
          let col = entering in
          let leaving = ref (-1) in
          let best_ratio = ref F.zero in
          for i = 0 to rows - 1 do
            let a = t.(i).(col) in
            if F.compare a (tol_for ~relative norms.(i)) > 0 then begin
              let num = t.(i).(cols) in
              (* Clamp tiny negative rhs (degenerate drift) to a zero
                 ratio instead of letting it push the pivot negative. *)
              let ratio = if F.compare num F.zero <= 0 then F.zero else F.div num a in
              let better =
                !leaving < 0
                ||
                let cr = F.compare ratio !best_ratio in
                cr < 0
                || cr = 0
                   &&
                   (match !mode with
                   | Bland -> basis.(i) < basis.(!leaving)
                   | Devex ->
                     (* Among ratio ties, take the numerically largest
                        pivot element — the stable choice. *)
                     F.compare (F.abs a) (F.abs t.(!leaving).(col)) > 0)
              in
              if better then begin
                leaving := i;
                best_ratio := ratio
              end
            end
          done;
          if !leaving < 0 then `Unbounded
          else begin
            let row = !leaving in
            let piv = t.(row).(col) in
            let leaving_col = basis.(row) in
            pivot t z basis norms znorm ~row ~col;
            counters.iters <- counters.iters + 1;
            (match !mode with
            | Bland -> counters.bland <- counters.bland + 1
            | Devex ->
              (* Classic Devex update: with the pivot row now normalised,
                 t.(row).(j) = a_rj / a_rq. *)
              let gamma = Float.max weights.(col) 1.0 in
              let pf = F.to_float piv in
              let wr = Float.max (gamma /. (pf *. pf)) 1.0 in
              let tr = t.(row) in
              let overflow = ref false in
              for j = 0 to cols - 1 do
                if j <> col then begin
                  let aj = F.to_float tr.(j) in
                  if aj <> 0.0 then begin
                    let cand = aj *. aj *. gamma in
                    if cand > weights.(j) then weights.(j) <- cand;
                    if weights.(j) > 1e12 then overflow := true
                  end
                end
              done;
              weights.(leaving_col) <- wr;
              (* Reference-framework restart once weights degrade. *)
              if !overflow then Array.fill weights 0 (Array.length weights) 1.0);
            let obj = F.neg z.(cols) in
            let itol = tol_for ~relative (F.abs !best_obj) in
            if F.compare obj (F.sub !best_obj itol) < 0 then begin
              best_obj := obj;
              since_improve := 0;
              (* Progress resumed: back to the fast pricing. *)
              mode := pricing
            end
            else begin
              incr since_improve;
              counters.degen <- counters.degen + 1;
              (* No objective progress over a whole window of pivots:
                 assume degenerate cycling territory and switch to
                 Bland's rule, whose termination proof needs no
                 tolerance assumptions. *)
              if !since_improve >= stall_k then mode := Bland
            end;
            loop ()
          end
        end
      end
    in
    loop ()

  let check_dims ~a ~b ~c =
    let rows = Array.length a in
    let n = Array.length c in
    if Array.length b <> rows then invalid_arg "Simplex.solve: b length mismatch";
    Array.iter
      (fun row -> if Array.length row <> n then invalid_arg "Simplex.solve: ragged matrix")
      a;
    (rows, n)

  (* Reject NaN/infinite coefficients up front: they would otherwise make
     the row-equilibration loop spin without progress and leave a silently
     wrong scale behind (the old 5000-iteration guard exited with the
     scale it had).  Exact fields are always finite; the scan is skipped. *)
  let check_finite ~a ~b ~c ~rows ~n =
    if not exact then begin
      for i = 0 to rows - 1 do
        let row = a.(i) in
        for j = 0 to n - 1 do
          if not (F.is_finite row.(j)) then raise (Non_finite { row = i; col = j })
        done;
        if not (F.is_finite b.(i)) then raise (Non_finite { row = i; col = n })
      done;
      for j = 0 to n - 1 do
        if not (F.is_finite c.(j)) then raise (Non_finite { row = -1; col = j })
      done
    end

  (* Largest power of two [2^-k] with [s * 2^-k] in [1, 2).  A power of
     two — rather than [1/s] itself, which rounds — keeps the scaling
     multiplications exact in binary floating point, so pivot decisions
     and the reported solution are genuinely unperturbed.  Inputs are
     finite and positive here ([check_finite] ran first), so [frexp] is
     total; the exponent clamp keeps the scale finite for subnormal
     magnitudes. *)
  let pow2_inv s =
    let _, e = Float.frexp (F.to_float s) in
    (* s = m * 2^e, m in [0.5, 1)  ->  s * 2^(1-e) = 2m in [1, 2) *)
    F.of_float (Float.ldexp 1.0 (Stdlib.min 1023 (1 - e)))

  (* A float pivot costs microseconds while the rational fallback a stall
     triggers costs orders of magnitude more, so the budget errs generous:
     it exists to bound genuinely cycling-adjacent runs, not to race
     honest degenerate plateaus (which can need thousands of Bland steps
     on heavily tied tableaus). *)
  let default_budget ~rows ~cols =
    if exact then max_int else Stdlib.max 4_000 ((100 * rows) + (10 * cols))

  let no_weights = [||]

  let solve_dense_detailed ?(pricing = Devex) ?(relative = true) ?iter_budget ~a ~b ~c () =
    let rows, n = check_dims ~a ~b ~c in
    check_finite ~a ~b ~c ~rows ~n;
    let is_neg_abs x = F.compare x (F.neg F.eps) < 0 in
    if rows = 0 then begin
      (* No constraints: minimum is at the origin unless some cost is
         negative, in which case that coordinate runs off to infinity. *)
      let outcome =
        if Array.exists is_neg_abs c then Unbounded
        else Optimal (Array.make n F.zero, F.zero)
      in
      detail_of (fresh_counters ()) ~basis:[||] outcome
    end
    else begin
      let cols = n + rows in
      let iter_budget =
        match iter_budget with Some k -> k | None -> default_budget ~rows ~cols
      in
      let stall_k = Stdlib.max 32 rows in
      (* Row equilibration (inexact fields only — exact fields compare
         exactly at any scale, and scaling would balloon rational
         numerators for no benefit).  The max is taken over the
         coefficients *and* the rhs, so scaled rows live in [-2, 2]
         throughout phase 1. *)
      let abs v = if F.compare v F.zero < 0 then F.neg v else v in
      let scale =
        Array.init rows (fun i ->
            if exact then F.one
            else begin
              let s = ref (abs b.(i)) in
              for j = 0 to n - 1 do
                let v = abs a.(i).(j) in
                if F.compare v !s > 0 then s := v
              done;
              if F.compare !s F.zero > 0 then pow2_inv !s else F.one
            end)
      in
      (* Columns n..n+rows-1 are the phase-1 artificials. *)
      let t =
        Array.init rows (fun i ->
            let negate = F.compare b.(i) F.zero < 0 in
            let flip v = if negate then F.neg v else v in
            Array.init (cols + 1) (fun j ->
                if j < n then flip (F.mul scale.(i) a.(i).(j))
                else if j < cols then if j - n = i then F.one else F.zero
                else flip (F.mul scale.(i) b.(i))))
      in
      let basis = Array.init rows (fun i -> n + i) in
      let norms =
        Array.init rows (fun i ->
            let mx = ref F.zero in
            for j = 0 to cols - 1 do
              let v = F.abs t.(i).(j) in
              if F.compare v !mx > 0 then mx := v
            done;
            !mx)
      in
      let counters = fresh_counters () in
      let weights = if pricing = Devex then Array.make cols 1.0 else no_weights in
      let finish outcome = detail_of counters ~basis:(Array.copy basis) outcome in
      (* Phase 1: minimize the sum of artificials.  Reduced costs start
         as [1] on artificials, reduced against the artificial basis:
         z_j = -(sum of rows) on structural columns, 0 on artificials. *)
      let z1 = Array.make (cols + 1) F.zero in
      for j = 0 to cols do
        if j < n || j = cols then begin
          let s = ref F.zero in
          for i = 0 to rows - 1 do
            s := F.add !s t.(i).(j)
          done;
          z1.(j) <- F.neg !s
        end
      done;
      let znorm =
        ref
          (let mx = ref F.zero in
           for j = 0 to cols - 1 do
             let v = F.abs z1.(j) in
             if F.compare v !mx > 0 then mx := v
           done;
           !mx)
      in
      let relative = relative && not exact in
      match
        iterate t z1 basis norms znorm weights counters ~eligible:(fun _ -> true)
          ~relative ~pricing ~iter_budget ~stall_k
      with
      | `Stalled -> finish Stalled
      | `Unbounded ->
        (* The phase-1 objective is bounded below by 0, so a genuine ray
           cannot exist: reaching here means the thresholds lied — an
           "improving" column with no pivotable row entry.  Report the
           system as infeasible-at-this-precision; certified callers
           re-solve exactly. *)
        finish Infeasible
      | `Optimal ->
        let phase1_obj = F.neg z1.(cols) in
        (* Scaled rhs magnitudes are <= 2, so the artificial sum of a
           genuinely feasible system settles within [rows] rounding
           units. *)
        let feas_tol = tol_for ~relative (F.of_int (2 * rows)) in
        if F.compare phase1_obj feas_tol > 0 then finish Infeasible
        else begin
          (* Drive any artificial still basic out of the basis. *)
          for i = 0 to rows - 1 do
            if basis.(i) >= n then begin
              let tol = tol_for ~relative norms.(i) in
              let found = ref (-1) in
              for j = 0 to n - 1 do
                if !found < 0 && F.compare (F.abs t.(i).(j)) tol > 0 then found := j
              done;
              if !found >= 0 then pivot t z1 basis norms znorm ~row:i ~col:!found
              (* Otherwise the row is redundant; the artificial stays
                 basic at value zero and is barred from re-entering. *)
            end
          done;
          (* Phase 2: real costs, reduced against the current basis. *)
          let z2 = Array.make (cols + 1) F.zero in
          Array.blit c 0 z2 0 n;
          for i = 0 to rows - 1 do
            let bj = basis.(i) in
            if bj < n then begin
              let cost = z2.(bj) in
              if F.compare cost F.zero <> 0 then
                for j = 0 to cols do
                  z2.(j) <- F.sub z2.(j) (F.mul cost t.(i).(j))
                done
            end
          done;
          znorm :=
            (let mx = ref F.zero in
             for j = 0 to cols - 1 do
               let v = F.abs z2.(j) in
               if F.compare v !mx > 0 then mx := v
             done;
             !mx);
          if pricing = Devex then Array.fill weights 0 cols 1.0;
          match
            iterate t z2 basis norms znorm weights counters ~eligible:(fun j -> j < n)
              ~relative ~pricing ~iter_budget ~stall_k
          with
          | `Stalled -> finish Stalled
          | `Unbounded -> finish Unbounded
          | `Optimal ->
            let x = Array.make n F.zero in
            Array.iteri (fun i bj -> if bj < n then x.(bj) <- t.(i).(cols)) basis;
            finish (Optimal (x, F.neg z2.(cols)))
        end
    end

  let solve_dense ~a ~b ~c = (solve_dense_detailed ~a ~b ~c ()).outcome

  (* The pre-Devex solver: Bland's rule under absolute thresholds (plus
     the power-of-two row equilibration it already had), with a pivot
     budget so a stall terminates instead of hanging.  Kept as the
     baseline the bench's before/after comparison is measured against. *)
  let solve_bland_detailed ?iter_budget ~a ~b ~c () =
    solve_dense_detailed ~pricing:Bland ~relative:false ?iter_budget ~a ~b ~c ()

  let solve_bland ~a ~b ~c = (solve_bland_detailed ~a ~b ~c ()).outcome

  (* Warm start: realize a proposed basis (typically the float solver's
     final one) by direct elimination, then run phase 2 only.  Any
     failure to realize it — singular basis, primal-infeasible vertex, a
     basic artificial carrying a nonzero value — falls back to the full
     two-phase solve, so the result is always as trustworthy as
     [solve]. *)
  let solve_dense_from_basis ?iter_budget ~a ~b ~c ~basis:proposed () =
    let rows, n = check_dims ~a ~b ~c in
    check_finite ~a ~b ~c ~rows ~n;
    let cols = n + rows in
    let full () = solve_dense_detailed ?iter_budget ~a ~b ~c () in
    if rows = 0 then full ()
    else if
      Array.length proposed <> rows
      || Array.exists (fun col -> col < 0 || col >= cols) proposed
    then full ()
    else begin
      let t =
        Array.init rows (fun i ->
            let negate = F.compare b.(i) F.zero < 0 in
            let flip v = if negate then F.neg v else v in
            Array.init (cols + 1) (fun j ->
                if j < n then flip a.(i).(j)
                else if j < cols then if j - n = i then F.one else F.zero
                else flip b.(i)))
      in
      let basis = Array.make rows (-1) in
      let norms = Array.make rows F.zero in
      let znorm = ref F.zero in
      let zdummy = Array.make (cols + 1) F.zero in
      let assigned = Array.make rows false in
      let ok = ref true in
      Array.iter
        (fun target ->
          if !ok then begin
            (* Find an unassigned row with a nonzero entry in the target
               column and eliminate there. *)
            let r = ref (-1) in
            for i = 0 to rows - 1 do
              if !r < 0 && (not assigned.(i)) && F.compare t.(i).(target) F.zero <> 0
              then r := i
            done;
            match !r with
            | -1 -> ok := false
            | row ->
              pivot t zdummy basis norms znorm ~row ~col:target;
              assigned.(row) <- true
          end)
        proposed;
      (* Primal feasibility of the proposed vertex, exactly: every rhs
         nonnegative, and any basic artificial stuck at zero. *)
      if !ok then
        for i = 0 to rows - 1 do
          if
            (not assigned.(i))
            || F.compare t.(i).(cols) F.zero < 0
            || (basis.(i) >= n && F.compare t.(i).(cols) F.zero <> 0)
          then ok := false
        done;
      if not !ok then full ()
      else begin
        let iter_budget =
          match iter_budget with Some k -> k | None -> default_budget ~rows ~cols
        in
        let z2 = Array.make (cols + 1) F.zero in
        Array.blit c 0 z2 0 n;
        for i = 0 to rows - 1 do
          let bj = basis.(i) in
          if bj < n then begin
            let cost = z2.(bj) in
            if F.compare cost F.zero <> 0 then
              for j = 0 to cols do
                z2.(j) <- F.sub z2.(j) (F.mul cost t.(i).(j))
              done
          end
        done;
        let counters = fresh_counters () in
        let finish outcome = detail_of counters ~basis:(Array.copy basis) outcome in
        match
          iterate t z2 basis norms znorm no_weights counters
            ~eligible:(fun j -> j < n)
            ~relative:(not exact) ~pricing:Bland ~iter_budget
            ~stall_k:(Stdlib.max 32 rows)
        with
        | `Stalled -> finish Stalled
        | `Unbounded -> finish Unbounded
        | `Optimal ->
          let x = Array.make n F.zero in
          Array.iteri (fun i bj -> if bj < n then x.(bj) <- t.(i).(cols)) basis;
          finish (Optimal (x, F.neg z2.(cols)))
      end
    end

  (* ================================================================== *)
  (* Revised simplex over a sparse LU-factorised basis.                  *)
  (*                                                                     *)
  (* Same two phases, same Devex/Bland pricing and stall detector, same  *)
  (* typed outcomes as the dense tableau above — but the per-iteration   *)
  (* work is one BTRAN (duals), one O(nnz) pricing sweep, one FTRAN      *)
  (* (entering column), an optional BTRAN + sweep for the Devex weight   *)
  (* update, and a product-form eta append, instead of an O(rows*cols)   *)
  (* tableau elimination.  The basis is refactorised (Markowitz LU, see  *)
  (* Lu) when the eta file passes its cap, when its accumulated fill     *)
  (* overtakes the factor's, or when an eta pivot is too small to        *)
  (* divide by; the basic solution is recomputed from scratch at every   *)
  (* refactorisation, which bounds drift.                                *)
  (* ================================================================== *)

  module Sp = Sparse.Make (F)
  module Lufac = Lu.Make (F)

  (* Numerical breakdown on the float path (a refactorisation found the
     basis singular after updates claimed it was fine): surrender to the
     typed [Stalled] outcome; certified callers re-solve exactly. *)
  exception Breakdown

  let eta_cap = 64

  (* Column ids: [0, ncols) structural, [ncols, ncols + dim) the
     artificials (unit columns, one per row), and [ncols + dim] the
     auxiliary column x0 of a phase 1 started from a primal-infeasible
     basis.  x0 is never priced and never handed back to the caller. *)
  type rstate = {
    dim : int;  (* constraint rows *)
    ncols : int;  (* structural columns *)
    amat : Sp.t;  (* scaled, sign-flipped structural matrix *)
    bvec : F.t array;  (* scaled, flipped rhs (componentwise >= 0) *)
    basis : int array;  (* basis position -> column id (-1: to be repaired) *)
    vpos : int array;  (* column id -> basis position, -1 if nonbasic *)
    xb : F.t array;  (* basic values, by basis position *)
    mutable fac : Lufac.t;
    weights : float array;  (* Devex reference weights, machine floats *)
    mutable x0_ind : int array;  (* x0's column, sparse, scaled frame *)
    mutable x0_val : F.t array;
    rhsbuf : F.t array;  (* row-space gather buffer *)
    wbuf : F.t array;  (* FTRAN image of the entering column *)
    ybuf : F.t array;  (* BTRAN duals *)
    cbuf : F.t array;  (* basic-cost gather *)
    rbuf : F.t array;  (* BTRAN pivot row *)
    ebuf : F.t array;  (* unit vector for the pivot-row BTRAN *)
    counters : counters;
    mutable eta_fill : int;  (* entries accumulated in the eta file *)
  }

  let[@inline] col_iter st j f =
    if j < st.ncols then Sp.iter_col st.amat j f
    else if j < st.ncols + st.dim then f (j - st.ncols) F.one
    else
      for k = 0 to Array.length st.x0_ind - 1 do
        f st.x0_ind.(k) st.x0_val.(k)
      done

  let refactorize st =
    (match Lufac.factorize ~dim:st.dim ~col:(col_iter st) ~basis:st.basis with
    | fac -> st.fac <- fac
    | exception Lu.Singular _ -> raise Breakdown);
    st.counters.factz <- st.counters.factz + 1;
    st.eta_fill <- 0;
    (* Recompute the basic solution from the fresh factors: the cheap
       incremental x_B updates drift, and this is the drift reset. *)
    Lufac.ftran st.fac ~rhs:st.bvec ~out:st.xb

  (* Absorb the exchange [basis.(pos) <- entering], whose FTRAN image is
     in [st.wbuf], into the factorisation — by eta when cheap and sound,
     by refactorisation otherwise. *)
  let absorb_exchange st ~pos =
    let fill =
      let c = ref 0 in
      for i = 0 to st.dim - 1 do
        if F.compare st.wbuf.(i) F.zero <> 0 then incr c
      done;
      !c
    in
    if
      Lufac.eta_count st.fac >= eta_cap
      || st.eta_fill + fill > 2 * Lufac.fill st.fac
      || not (Lufac.update st.fac ~w:st.wbuf ~pos)
    then begin
      if st.counters.factz > 0 then st.counters.refz <- st.counters.refz + 1;
      refactorize st
    end
    else begin
      st.counters.etaups <- st.counters.etaups + 1;
      st.eta_fill <- st.eta_fill + fill
    end

  (* One phase of the revised simplex.  [cost j] is the phase objective
     coefficient of column [j]; [eligible j] gates entering candidates;
     [objective ()] evaluates the current phase objective for the stall
     detector. *)
  let iterate_rev st ~cost ~eligible ~relative ~pricing ~iter_budget ~stall_k ~objective
      =
    let dim = st.dim in
    let all_cols = st.ncols + dim in
    let mode = ref pricing in
    let since_improve = ref 0 in
    let best_obj = ref (objective ()) in
    let rec loop () =
      if st.counters.iters >= iter_budget then `Stalled
      else begin
        (* Duals: y = B^-T c_B. *)
        for i = 0 to dim - 1 do
          st.cbuf.(i) <- cost st.basis.(i)
        done;
        Lufac.btran st.fac ~cvec:st.cbuf ~out:st.ybuf;
        (* Pricing sweep: d_j = c_j - y . A_j, tested against a tolerance
           relative to the magnitude of its own computation (the revised
           analogue of the dense path's maintained row norms). *)
        let entering = ref (-1) in
        let best_score = ref 0.0 in
        let j = ref 0 in
        let continue_scan = ref true in
        while !continue_scan && !j < all_cols do
          let jj = !j in
          if st.vpos.(jj) < 0 && eligible jj then begin
            let d = ref (cost jj) in
            let mag = ref (F.abs !d) in
            col_iter st jj (fun r v ->
                let p = F.mul st.ybuf.(r) v in
                d := F.sub !d p;
                mag := F.add !mag (F.abs p));
            let tol = if relative then F.add F.eps (F.mul F.rel_eps !mag) else F.eps in
            if F.compare !d (F.neg tol) < 0 then begin
              match !mode with
              | Bland ->
                entering := jj;
                continue_scan := false
              | Devex ->
                let df = F.to_float !d in
                let score = df *. df /. st.weights.(jj) in
                if score > !best_score then begin
                  best_score := score;
                  entering := jj
                end
            end
          end;
          incr j
        done;
        if !entering < 0 then `Optimal
        else begin
          let q = !entering in
          (* FTRAN: w = B^-1 A_q. *)
          Array.fill st.rhsbuf 0 dim F.zero;
          col_iter st q (fun r v -> st.rhsbuf.(r) <- v);
          Lufac.ftran st.fac ~rhs:st.rhsbuf ~out:st.wbuf;
          let wmax = ref F.zero in
          for i = 0 to dim - 1 do
            let v = F.abs st.wbuf.(i) in
            if F.compare v !wmax > 0 then wmax := v
          done;
          let wtol = if relative then F.add F.eps (F.mul F.rel_eps !wmax) else F.eps in
          let neg_wtol = F.neg wtol in
          (* Ratio test.  Basic artificials already sitting at zero are
             additionally kicked out at a zero step whenever the entering
             column touches them with either sign, so they cannot drift
             away from zero in phase 2.  (The zero-value gate matters: a
             zero-step exchange of a basic variable carrying flow would
             silently break B x_B = b.) *)
          let zero_tol = tol_for ~relative (F.of_int (2 * dim)) in
          let leave = ref (-1) in
          let best_ratio = ref F.zero in
          for i = 0 to dim - 1 do
            let wi = st.wbuf.(i) in
            let art = st.basis.(i) >= st.ncols in
            let cand, ratio =
              if F.compare wi wtol > 0 then begin
                let num = st.xb.(i) in
                let r = if F.compare num F.zero <= 0 then F.zero else F.div num wi in
                (true, r)
              end
              else if
                art
                && F.compare wi neg_wtol < 0
                && F.compare (F.abs st.xb.(i)) zero_tol <= 0
              then (true, F.zero)
              else (false, F.zero)
            in
            if cand then begin
              let better =
                !leave < 0
                ||
                let cr = F.compare ratio !best_ratio in
                cr < 0
                || cr = 0
                   &&
                   (match !mode with
                   | Bland -> st.basis.(i) < st.basis.(!leave)
                   | Devex -> F.compare (F.abs wi) (F.abs st.wbuf.(!leave)) > 0)
              in
              if better then begin
                leave := i;
                best_ratio := ratio
              end
            end
          done;
          if !leave < 0 then `Unbounded
          else begin
            let pos = !leave in
            let theta = !best_ratio in
            let piv = st.wbuf.(pos) in
            let lcol = st.basis.(pos) in
            (* Devex weight update needs the pivot row of the *old* basis:
               alpha = (B^-T e_pos)^T A, one extra BTRAN + sweep. *)
            (match !mode with
            | Bland -> ()
            | Devex ->
              Array.fill st.ebuf 0 dim F.zero;
              st.ebuf.(pos) <- F.one;
              Lufac.btran st.fac ~cvec:st.ebuf ~out:st.rbuf;
              let gamma = Float.max st.weights.(q) 1.0 in
              let pf = F.to_float piv in
              let overflow = ref false in
              for jj = 0 to all_cols - 1 do
                if jj <> q && st.vpos.(jj) < 0 && eligible jj then begin
                  let alpha = ref F.zero in
                  col_iter st jj (fun r v -> alpha := F.add !alpha (F.mul st.rbuf.(r) v));
                  let af = F.to_float !alpha /. pf in
                  if af <> 0.0 then begin
                    let cand = af *. af *. gamma in
                    if cand > st.weights.(jj) then st.weights.(jj) <- cand;
                    if st.weights.(jj) > 1e12 then overflow := true
                  end
                end
              done;
              st.weights.(lcol) <- Float.max (gamma /. (pf *. pf)) 1.0;
              if !overflow then Array.fill st.weights 0 all_cols 1.0);
            (* Apply the step to the basic solution and swap the basis. *)
            if F.compare theta F.zero <> 0 then
              for i = 0 to dim - 1 do
                if F.compare st.wbuf.(i) F.zero <> 0 then
                  st.xb.(i) <- F.sub st.xb.(i) (F.mul theta st.wbuf.(i))
              done;
            st.xb.(pos) <- theta;
            st.basis.(pos) <- q;
            st.vpos.(lcol) <- -1;
            st.vpos.(q) <- pos;
            absorb_exchange st ~pos;
            st.counters.iters <- st.counters.iters + 1;
            (match !mode with
            | Bland -> st.counters.bland <- st.counters.bland + 1
            | Devex -> ());
            let obj = objective () in
            let itol =
              if relative then F.add F.eps (F.mul F.rel_eps (F.abs !best_obj)) else F.eps
            in
            if F.compare obj (F.sub !best_obj itol) < 0 then begin
              best_obj := obj;
              since_improve := 0;
              mode := pricing
            end
            else begin
              incr since_improve;
              st.counters.degen <- st.counters.degen + 1;
              if !since_improve >= stall_k then mode := Bland
            end;
            loop ()
          end
        end
      end
    in
    loop ()

  let check_finite_sparse ~(a : Sp.t) ~b ~c =
    if not exact then begin
      let n = Sp.cols a in
      for j = 0 to n - 1 do
        Sp.iter_col a j (fun i v ->
            if not (F.is_finite v) then raise (Non_finite { row = i; col = j }))
      done;
      Array.iteri
        (fun i v -> if not (F.is_finite v) then raise (Non_finite { row = i; col = n }))
        b;
      Array.iteri
        (fun j v -> if not (F.is_finite v) then raise (Non_finite { row = -1; col = j }))
        c
    end

  (* Scale + flip the input into the internal standard form shared by the
     cold and warm sparse entry points: rows equilibrated by powers of
     two, negative-rhs rows negated, artificials implicit, the
     all-artificial basis installed. *)
  let make_rstate ~(a : Sp.t) ~b =
    let rows = Sp.rows a in
    let n = Sp.cols a in
    let abs v = if F.compare v F.zero < 0 then F.neg v else v in
    let rowmax = Array.make rows F.zero in
    if not exact then begin
      Array.iteri (fun i bi -> rowmax.(i) <- abs bi) b;
      Array.iteri
        (fun k v ->
          let r = a.Sparse.rowind.(k) in
          let m = abs v in
          if F.compare m rowmax.(r) > 0 then rowmax.(r) <- m)
        a.Sparse.values
    end;
    let scale =
      Array.init rows (fun i ->
          if exact then F.one
          else if F.compare rowmax.(i) F.zero > 0 then pow2_inv rowmax.(i)
          else F.one)
    in
    let flip = Array.init rows (fun i -> F.compare b.(i) F.zero < 0) in
    let values =
      Array.mapi
        (fun k v ->
          let r = a.Sparse.rowind.(k) in
          let v = F.mul scale.(r) v in
          if flip.(r) then F.neg v else v)
        a.Sparse.values
    in
    let amat = { a with Sparse.values = values } in
    let bvec =
      Array.init rows (fun i ->
          let v = F.mul scale.(i) b.(i) in
          if flip.(i) then F.neg v else v)
    in
    let all_cols = n + rows + 1 in
    {
      dim = rows;
      ncols = n;
      amat;
      bvec;
      basis = Array.init rows (fun i -> n + i);
      vpos = Array.make all_cols (-1);  (* filled by [factorize_start] *)
      xb = Array.copy bvec;
      fac = Lufac.factorize ~dim:0 ~col:(fun _ _ -> ()) ~basis:[||];
      weights = Array.make all_cols 1.0;
      x0_ind = [||];
      x0_val = [||];
      rhsbuf = Array.make rows F.zero;
      wbuf = Array.make rows F.zero;
      ybuf = Array.make rows F.zero;
      cbuf = Array.make rows F.zero;
      rbuf = Array.make rows F.zero;
      ebuf = Array.make rows F.zero;
      counters = fresh_counters ();
      eta_fill = 0;
    }

  (* The reported basis never names x0: a solve that stops with x0 still
     basic (a phase-1 stall or breakdown) reports the lowest nonbasic
     artificial in its place, which a later warm start repairs if need
     be. *)
  let finish_rev st outcome =
    let basis = Array.copy st.basis in
    let x0 = st.ncols + st.dim in
    if st.vpos.(x0) >= 0 then begin
      let r = ref 0 in
      while st.vpos.(st.ncols + !r) >= 0 do
        incr r
      done;
      basis.(st.vpos.(x0)) <- st.ncols + !r
    end;
    detail_of st.counters ~basis outcome

  let phase2_cost st c j = if j < st.ncols then c.(j) else F.zero

  let phase2_objective st c () =
    let s = ref F.zero in
    for i = 0 to st.dim - 1 do
      let bj = st.basis.(i) in
      if bj < st.ncols then s := F.add !s (F.mul c.(bj) st.xb.(i))
    done;
    !s

  let extract_solution st c =
    let x = Array.make st.ncols F.zero in
    for i = 0 to st.dim - 1 do
      let bj = st.basis.(i) in
      if bj < st.ncols then x.(bj) <- st.xb.(i)
    done;
    (x, phase2_objective st c ())

  (* Pivot any artificial still basic after phase 1 out of the basis:
     BTRAN its unit vector to get the pivot row, take the first
     structural nonbasic column with a usable entry, and exchange at a
     zero step.  Rows with no such entry are redundant; their artificial
     stays basic at zero, barred from entering and kicked out by the
     ratio test if an entering column ever touches the row.  x0 always
     leaves: failing a structural column, a nonbasic artificial takes
     its place (the pivot row of a nonsingular basis is nonzero on some
     row, and that row's artificial cannot be basic elsewhere). *)
  let drive_out_artificials st ~relative =
    let x0 = st.ncols + st.dim in
    for i = 0 to st.dim - 1 do
      if st.basis.(i) >= st.ncols then begin
        Array.fill st.ebuf 0 st.dim F.zero;
        st.ebuf.(i) <- F.one;
        Lufac.btran st.fac ~cvec:st.ebuf ~out:st.rbuf;
        let found = ref (-1) in
        let fval = ref F.zero in
        let j = ref 0 in
        let last = if st.basis.(i) = x0 then x0 else st.ncols in
        while !found < 0 && !j < last do
          let jj = !j in
          if st.vpos.(jj) < 0 then begin
            let alpha = ref F.zero in
            let mag = ref F.zero in
            col_iter st jj (fun r v ->
                let p = F.mul st.rbuf.(r) v in
                alpha := F.add !alpha p;
                mag := F.add !mag (F.abs p));
            let tol = if relative then F.add F.eps (F.mul F.rel_eps !mag) else F.eps in
            if F.compare (F.abs !alpha) tol > 0 then begin
              found := jj;
              fval := !alpha
            end
          end;
          incr j
        done;
        if !found >= 0 then begin
          let q = !found in
          Array.fill st.rhsbuf 0 st.dim F.zero;
          col_iter st q (fun r v -> st.rhsbuf.(r) <- v);
          Lufac.ftran st.fac ~rhs:st.rhsbuf ~out:st.wbuf;
          (* The artificial sits at (numerical) zero, so the step is a
             degenerate exchange: x_B is unchanged except at [i]. *)
          let lcol = st.basis.(i) in
          st.xb.(i) <- F.zero;
          st.basis.(i) <- q;
          st.vpos.(lcol) <- -1;
          st.vpos.(q) <- i;
          absorb_exchange st ~pos:i
        end
      end
    done

  (* Factorise whatever basis [st] holds in repair mode — a singular,
     duplicate or missing (-1) position takes the artificial of the
     lowest uncovered row — and recompute x_B = B^-1 b. *)
  let factorize_start st =
    st.fac <-
      Lufac.factorize_repair ~dim:st.dim
        ~col:(fun j f -> if j >= 0 then col_iter st j f)
        ~basis:st.basis
        ~repair:(fun ~pos ~row ->
          st.basis.(pos) <- st.ncols + row;
          st.counters.repairs <- st.counters.repairs + 1);
    st.counters.factz <- st.counters.factz + 1;
    st.eta_fill <- 0;
    Array.fill st.vpos 0 (Array.length st.vpos) (-1);
    Array.iteri (fun i j -> st.vpos.(j) <- i) st.basis;
    Lufac.ftran st.fac ~rhs:st.bvec ~out:st.xb

  (* Chvátal's single-artificial start for a primal-infeasible basis:
     x0 = -(sum of the basic columns at negative positions) has FTRAN
     image -1 at exactly those positions, so entering it at the most
     negative position [row], at step -x_B(row), lifts every negative
     basic value to >= 0 in one exchange. *)
  let enter_x0 st ~row =
    let dim = st.dim in
    Array.fill st.rhsbuf 0 dim F.zero;
    for i = 0 to dim - 1 do
      if F.compare st.xb.(i) F.zero < 0 then
        col_iter st st.basis.(i) (fun r v -> st.rhsbuf.(r) <- F.sub st.rhsbuf.(r) v)
    done;
    let nz = ref [] in
    for r = dim - 1 downto 0 do
      if F.compare st.rhsbuf.(r) F.zero <> 0 then nz := r :: !nz
    done;
    st.x0_ind <- Array.of_list !nz;
    st.x0_val <- Array.map (fun r -> st.rhsbuf.(r)) st.x0_ind;
    Lufac.ftran st.fac ~rhs:st.rhsbuf ~out:st.wbuf;
    let theta = F.div st.xb.(row) st.wbuf.(row) in
    for i = 0 to dim - 1 do
      if F.compare st.wbuf.(i) F.zero <> 0 then
        st.xb.(i) <- F.sub st.xb.(i) (F.mul theta st.wbuf.(i))
    done;
    st.xb.(row) <- theta;
    let x0 = st.ncols + dim in
    st.vpos.(st.basis.(row)) <- -1;
    st.basis.(row) <- x0;
    st.vpos.(x0) <- row;
    absorb_exchange st ~pos:row;
    st.counters.iters <- st.counters.iters + 1

  (* The one phase-1/phase-2 routine behind the cold and the warm entry
     points, started from whatever basis [st] holds (the all-artificial
     one for a cold solve).  Phase 1 runs only when that basis is not
     primal feasible: some basic value below -tol (x0 enters first) or a
     basic artificial above tol; it minimizes the artificials plus x0.
     [phase1] and [phase2] are the phases' pricing rules.
     @raise Breakdown on a numerical breakdown. *)
  let run st ~c ~phase1 ~phase2 ~relative ~iter_budget ~stall_k =
    let n = st.ncols in
    factorize_start st;
    let tol = tol_for ~relative (F.of_int (2 * st.dim)) in
    let neg_tol = F.neg tol in
    let worst = ref (-1) and infeasible = ref false in
    for i = 0 to st.dim - 1 do
      let v = st.xb.(i) in
      if F.compare v neg_tol < 0 then begin
        infeasible := true;
        if !worst < 0 || F.compare v st.xb.(!worst) < 0 then worst := i
      end
      else if st.basis.(i) >= n && F.compare v tol > 0 then infeasible := true
    done;
    let run_phase2 () =
      match
        iterate_rev st ~cost:(phase2_cost st c)
          ~eligible:(fun j -> j < n)
          ~relative ~pricing:phase2 ~iter_budget ~stall_k
          ~objective:(phase2_objective st c)
      with
      | `Stalled -> finish_rev st Stalled
      | `Unbounded -> finish_rev st Unbounded
      | `Optimal ->
        let x, obj = extract_solution st c in
        finish_rev st (Optimal (x, obj))
    in
    if not !infeasible then run_phase2 ()
    else begin
      if !worst >= 0 then enter_x0 st ~row:!worst;
      let cost1 j = if j >= n then F.one else F.zero in
      let objective1 () =
        let s = ref F.zero in
        for i = 0 to st.dim - 1 do
          if st.basis.(i) >= n then s := F.add !s st.xb.(i)
        done;
        !s
      in
      match
        iterate_rev st ~cost:cost1
          ~eligible:(fun _ -> true)
          ~relative ~pricing:phase1 ~iter_budget ~stall_k ~objective:objective1
      with
      | `Stalled -> finish_rev st Stalled
      | `Unbounded ->
        (* Phase 1 is bounded below by 0: a reported ray means the
           thresholds lied.  Same convention as the dense path. *)
        finish_rev st Infeasible
      | `Optimal ->
        if F.compare (objective1 ()) tol > 0 then finish_rev st Infeasible
        else begin
          drive_out_artificials st ~relative;
          Array.fill st.weights 0 (Array.length st.weights) 1.0;
          run_phase2 ()
        end
    end

  let check_sparse ~(a : Sp.t) ~b ~c =
    if Array.length b <> Sp.rows a then invalid_arg "Simplex.solve_sparse: b length mismatch";
    if Array.length c <> Sp.cols a then invalid_arg "Simplex.solve_sparse: c length mismatch";
    check_finite_sparse ~a ~b ~c

  let budget_or iter_budget st =
    match iter_budget with
    | Some k -> k
    | None -> default_budget ~rows:st.dim ~cols:(st.ncols + st.dim)

  (* No constraints: minimum is at the origin unless some cost is
     negative, in which case that coordinate runs off to infinity. *)
  let solve_unconstrained ~c =
    let outcome =
      if Array.exists (fun x -> F.compare x (F.neg F.eps) < 0) c then Unbounded
      else Optimal (Array.make (Array.length c) F.zero, F.zero)
    in
    detail_of (fresh_counters ()) ~basis:[||] outcome

  let solve_sparse_detailed ?(pricing = Devex) ?(relative = true) ?iter_budget
      ~(a : Sp.t) ~b ~c () =
    check_sparse ~a ~b ~c;
    if Sp.rows a = 0 then solve_unconstrained ~c
    else begin
      let st = make_rstate ~a ~b in
      match
        run st ~c ~phase1:pricing ~phase2:pricing ~relative:(relative && not exact)
          ~iter_budget:(budget_or iter_budget st) ~stall_k:(Stdlib.max 32 st.dim)
      with
      | d -> d
      | exception Breakdown -> finish_rev st Stalled
    end

  let solve_sparse ~a ~b ~c = (solve_sparse_detailed ~a ~b ~c ()).outcome

  (* Warm start on the sparse path: install the proposed basis as given
     — out-of-range or repeated ids, and positions past its end, left
     empty for the start factorization to repair; surplus entries
     dropped — and run the shared [run] from it.  Phase 1 from a stale
     basis is a real search, which Devex steers in fewer pivots; phase 2
     from a warm basis is typically a handful of pivots, where Bland's
     first-candidate scan is cheapest (and, on the exact instance,
     skips Devex's extra rational BTRAN per pivot).  Only a numerical
     breakdown restarts, cold, from the all-artificial basis (counted in
     [fallbacks]), so the result is always as trustworthy as
     [solve_sparse]. *)
  let solve_sparse_from_basis ?iter_budget ~(a : Sp.t) ~b ~c ~basis:proposed () =
    check_sparse ~a ~b ~c;
    if Sp.rows a = 0 then solve_unconstrained ~c
    else begin
      let st = make_rstate ~a ~b in
      let ids = st.ncols + st.dim in
      for i = 0 to st.dim - 1 do
        let j = if i < Array.length proposed then proposed.(i) else -1 in
        if j >= 0 && j < ids && st.vpos.(j) < 0 then begin
          st.basis.(i) <- j;
          st.vpos.(j) <- i
        end
        else st.basis.(i) <- -1
      done;
      let iter_budget = budget_or iter_budget st in
      let stall_k = Stdlib.max 32 st.dim in
      let relative = not exact in
      match run st ~c ~phase1:Devex ~phase2:Bland ~relative ~iter_budget ~stall_k with
      | d -> d
      | exception Breakdown -> (
        st.counters.fallbacks <- st.counters.fallbacks + 1;
        for i = 0 to st.dim - 1 do
          st.basis.(i) <- st.ncols + i
        done;
        Array.fill st.weights 0 (Array.length st.weights) 1.0;
        match
          run st ~c ~phase1:Devex ~phase2:Devex ~relative
            ~iter_budget:(iter_budget + st.counters.iters) ~stall_k
        with
        | d -> d
        | exception Breakdown -> finish_rev st Stalled)
    end

  (* The default entry points run the revised path; the dense tableau
     survives as [solve_dense*] — the differential anchor the
     sparse-vs-dense fuzz oracle pins the revised path against. *)
  let solve_detailed ?pricing ?relative ?iter_budget ~a ~b ~c () =
    let rows, n = check_dims ~a ~b ~c in
    check_finite ~a ~b ~c ~rows ~n;
    let sa = Sp.of_dense a ~cols:n in
    solve_sparse_detailed ?pricing ?relative ?iter_budget ~a:sa ~b ~c ()

  let solve ~a ~b ~c = (solve_detailed ~a ~b ~c ()).outcome

  let solve_from_basis ?iter_budget ~a ~b ~c ~basis () =
    let rows, n = check_dims ~a ~b ~c in
    check_finite ~a ~b ~c ~rows ~n;
    let sa = Sp.of_dense a ~cols:n in
    solve_sparse_from_basis ?iter_budget ~a:sa ~b ~c ~basis ()
end

module Float_solver = Make (Mf_numeric.Ordered_field.Float_field)
module Rat_solver = Make (Mf_numeric.Ordered_field.Rat_field)
