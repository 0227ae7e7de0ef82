module campuslab/bench

go 1.22

require campuslab v0.0.0

replace campuslab => ../
