module batterylab/benchmark

go 1.24

require batterylab v0.0.0

replace batterylab => ../
