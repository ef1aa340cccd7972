module T = Logic.Truthtable

let gate_alpha tt =
  let total = 1 lsl T.nvars tt in
  let ones = T.count_ones tt in
  let zeros = total - ones in
  float_of_int (min ones zeros) /. float_of_int total

let toggle_alpha tt =
  let total = 1 lsl T.nvars tt in
  let p = float_of_int (T.count_ones tt) /. float_of_int total in
  2.0 *. p *. (1.0 -. p)
