//! CSV export for figure data.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use scibench::data::DataSet;

/// Directory the figure binaries write CSV data into.
pub fn figures_dir() -> PathBuf {
    PathBuf::from("figures")
}

/// Writes a dataset to `<dir>/<name>.csv`, creating the directory.
pub fn write_csv(dir: &Path, name: &str, data: &DataSet) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, data.to_csv())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("scibench-output-{}", std::process::id()));
        let mut d = DataSet::new(&["a", "b"]).with_metadata("figure", "test");
        d.push_row(&[1.0, 2.0]);
        let path = write_csv(&dir, "unit_test_output", &d).unwrap();
        assert_eq!(path, dir.join("unit_test_output.csv"));
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(DataSet::from_csv(&text).unwrap(), d);
        fs::remove_dir_all(dir).unwrap();
    }
}
