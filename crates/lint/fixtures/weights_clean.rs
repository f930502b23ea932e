//! Fixture: reads through `Layer::weights()`, writes through the
//! `Layer` methods that flag the unit, and cell writes not rooted at
//! `.weights()` are all clean.

pub fn tune(layer: &Layer, row: &mut [f32]) -> f32 {
    layer.weights().read_row_into(2, row);
    layer.set_weight(41, 3, 2.5);
    layer.biases().set(17, 0.25);
    let moments = HogwildMatrix::zeroed(2, 2);
    moments.set(0, 1, 0.5);
    layer.weights().flat().get(7) + layer.weights().get(41, 3)
}
