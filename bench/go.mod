module dsr/bench

go 1.22

require dsr v0.0.0

replace dsr => ../
