module tlc/bench

go 1.22

require tlc v0.0.0

replace tlc => ../
