//! Helpers shared by the integration tests that inspect artifact trees.

use std::fs;
use std::path::Path;

/// Every file under `root`, as a sorted list of `/`-separated paths
/// relative to it, not descending into directories named in `skip`.
pub fn files_under(root: &Path, skip: &[&str]) -> Vec<String> {
    fn walk(dir: &Path, root: &Path, skip: &[&str], out: &mut Vec<String>) {
        for entry in fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("utf-8 name");
            if path.is_dir() {
                if !skip.contains(&name) {
                    walk(&path, root, skip, out);
                }
            } else {
                let relative = path.strip_prefix(root).expect("under the root");
                out.push(relative.to_str().expect("utf-8 path").replace('\\', "/"));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, skip, &mut out);
    out.sort();
    out
}
