module sunwaylb/bench

go 1.22

require sunwaylb v0.0.0

replace sunwaylb => ../
